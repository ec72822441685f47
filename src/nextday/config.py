"""Pipeline configuration: JSON file plus --set key=value overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from nextday.text import decode_utf8

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


class ConfigError(ValueError):
    """Unusable configuration or missing prerequisite file."""


@dataclass(frozen=True)
class PathsConfig:
    articles: str = "articles.jsonl"
    tweets: str = "tweets.jsonl"
    users: str = "users.jsonl"
    output_dir: str = "out"
    sentiment_lexicon: str | None = None
    emotion_lexicon: str | None = None
    negators: str | None = None
    boosters: str | None = None


@dataclass(frozen=True)
class RelevanceParams:
    min_overlap: int = 3
    generic_article_threshold: int = 5
    generic_frequency_quantile: float = 0.90
    max_iterations: int = 3
    history_days: int = 30
    keywords_source: str = "title_body"  # or "title"
    keyword_count: int = 10


@dataclass(frozen=True)
class FeatureParams:
    active_window_days: int = 30
    similarity_threshold: float = 0.3
    authoritative: bool = False


@dataclass(frozen=True)
class CartConfig:
    max_depth: int = 8
    min_samples_leaf: int = 2


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    bootstrap: bool = True
    max_features: int | None = None  # None = ceil(sqrt(d))
    seed: int = 0
    tree: CartConfig = field(default_factory=CartConfig)


@dataclass(frozen=True)
class SvmConfig:
    c: float = 1.0
    epochs: int = 200
    seed: int = 0


@dataclass(frozen=True)
class LearnParams:
    k: int = 10
    seed: int = 2016
    repeats: int = 1
    cart: CartConfig = field(default_factory=CartConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)


@dataclass(frozen=True)
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    relevance: RelevanceParams = field(default_factory=RelevanceParams)
    features: FeatureParams = field(default_factory=FeatureParams)
    learn: LearnParams = field(default_factory=LearnParams)

    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)

    def require_files(self, *names: str) -> None:
        """Check that each named `paths` entry is a file this process can open."""
        for name in names:
            value = getattr(self.paths, name)
            if value is None or not Path(value).exists():
                raise ConfigError(f"required input 'paths.{name}' not found at {value!r}")
            try:
                open(value, "rb").close()
            except OSError as exc:  # a directory, or no read permission
                raise ConfigError(
                    f"cannot read required input 'paths.{name}' at {value!r}: {exc.strerror}"
                ) from None

    def effective_dict(self) -> dict:
        return {
            "paths": {
                "articles": self.paths.articles,
                "tweets": self.paths.tweets,
                "users": self.paths.users,
                "output_dir": self.paths.output_dir,
                "sentiment_lexicon": self.paths.sentiment_lexicon,
                "emotion_lexicon": self.paths.emotion_lexicon,
                "negators": self.paths.negators,
                "boosters": self.paths.boosters,
            },
            "relevance": {
                "min_overlap": self.relevance.min_overlap,
                "generic_article_threshold": self.relevance.generic_article_threshold,
                "generic_frequency_quantile": self.relevance.generic_frequency_quantile,
                "max_iterations": self.relevance.max_iterations,
                "history_days": self.relevance.history_days,
                "keywords_source": self.relevance.keywords_source,
                "keyword_count": self.relevance.keyword_count,
            },
            "features": {
                "active_window_days": self.features.active_window_days,
                "similarity_threshold": self.features.similarity_threshold,
                "authoritative": self.features.authoritative,
            },
            "learn": {
                "k": self.learn.k,
                "seed": self.learn.seed,
                "repeats": self.learn.repeats,
                "cart": {
                    "max_depth": self.learn.cart.max_depth,
                    "min_samples_leaf": self.learn.cart.min_samples_leaf,
                },
                "forest": {
                    "n_trees": self.learn.forest.n_trees,
                    "bootstrap": self.learn.forest.bootstrap,
                    "max_features": self.learn.forest.max_features,
                    "max_depth": self.learn.forest.tree.max_depth,
                    "min_samples_leaf": self.learn.forest.tree.min_samples_leaf,
                },
                "svm": {"c": self.learn.svm.c, "epochs": self.learn.svm.epochs},
            },
        }


def _set_path(tree: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key '{part}'")
    node[parts[-1]] = value


def parse_overrides(pairs: list[str]) -> dict:
    """--set a.b.c=value pairs; values parse as JSON, else raw strings."""
    tree: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(tree, key.strip(), value)
    return tree


def _merge(base: dict, extra: dict) -> dict:
    merged = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation -> (accepts the JSON value, what the message asks for).
# Values are checked, never converted, so the effective config keeps the
# exact values the file gave.
_TYPE_RULES = {
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def _section(value, context: str) -> dict:
    """A copy of the config object `value`."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{context}' must be an object, got {json.dumps(value)}")
    return dict(value)


def _build(section: dict, cls, context: str, **extra):
    fields = cls.__dataclass_fields__
    for key, value in section.items():
        # nested sections (learn.cart, learn.forest.tree, ...) come in `extra`
        if key not in fields or fields[key].type not in _TYPE_RULES:
            raise ConfigError(f"unknown config key '{context}.{key}'")
        accepts, wanted = _TYPE_RULES[fields[key].type]
        if not accepts(value):
            raise ConfigError(f"'{context}.{key}' must be {wanted}, got {json.dumps(value)}")
    return cls(**{**section, **extra})


def config_from_dict(tree: dict) -> PipelineConfig:
    unknown = set(tree) - {"paths", "relevance", "features", "learn"}
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    learn_section = _section(tree.get("learn", {}), "learn")
    cart_section = _section(learn_section.pop("cart", {}), "learn.cart")
    forest_section = _section(learn_section.pop("forest", {}), "learn.forest")
    svm_section = _section(learn_section.pop("svm", {}), "learn.svm")
    forest_depth = {
        key: forest_section.pop(key)
        for key in ("max_depth", "min_samples_leaf")
        if key in forest_section
    }
    learn = _build(learn_section, LearnParams, "learn")
    forest_section.setdefault("seed", learn.seed)
    svm_section.setdefault("seed", learn.seed)
    config = PipelineConfig(
        paths=_build(_section(tree.get("paths", {}), "paths"), PathsConfig, "paths"),
        relevance=_build(
            _section(tree.get("relevance", {}), "relevance"), RelevanceParams, "relevance"
        ),
        features=_build(_section(tree.get("features", {}), "features"), FeatureParams, "features"),
        learn=replace(
            learn,
            cart=_build(cart_section, CartConfig, "learn.cart"),
            forest=_build(
                forest_section,
                ForestConfig,
                "learn.forest",
                tree=_build(forest_depth, CartConfig, "learn.forest"),
            ),
            svm=_build(svm_section, SvmConfig, "learn.svm"),
        ),
    )
    _validate(config)
    return config


def _validate(config: PipelineConfig) -> None:
    checks = [
        (config.relevance.min_overlap >= 1, "relevance.min_overlap must be >= 1"),
        (
            0.0 <= config.relevance.generic_frequency_quantile <= 1.0,
            "relevance.generic_frequency_quantile must be in [0, 1]",
        ),
        (config.relevance.generic_article_threshold >= 1, "relevance.generic_article_threshold must be >= 1"),
        (config.relevance.max_iterations >= 1, "relevance.max_iterations must be >= 1"),
        (config.relevance.history_days >= 1, "relevance.history_days must be >= 1"),
        (config.relevance.keyword_count >= 1, "relevance.keyword_count must be >= 1"),
        (
            config.relevance.keywords_source in ("title", "title_body"),
            "relevance.keywords_source must be 'title' or 'title_body'",
        ),
        (config.features.active_window_days >= 0, "features.active_window_days must be >= 0"),
        (
            0.0 <= config.features.similarity_threshold <= 1.0,
            "features.similarity_threshold must be in [0, 1]",
        ),
        (config.learn.k >= 2, "learn.k must be >= 2"),
        (config.learn.repeats >= 1, "learn.repeats must be >= 1"),
        (config.learn.cart.max_depth >= 0, "learn.cart.max_depth must be >= 0"),
        (config.learn.cart.min_samples_leaf >= 1, "learn.cart.min_samples_leaf must be >= 1"),
        (config.learn.forest.n_trees >= 1, "learn.forest.n_trees must be >= 1"),
        (config.learn.svm.c > 0, "learn.svm.c must be > 0"),
        (config.learn.svm.epochs >= 1, "learn.svm.epochs must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def load_config(path, overrides: list[str] | None = None) -> PipelineConfig:
    try:
        with open(path, "rb") as fh:
            tree = json.loads(decode_utf8(fh.read(), path, ConfigError))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(tree, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if overrides:
        tree = _merge(tree, parse_overrides(overrides))
    return config_from_dict(tree)
