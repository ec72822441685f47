"""Pipeline configuration: JSON file plus --set key=value overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from nextday.features import FeatureParams
from nextday.relevance import RelevanceParams


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
        for name in names:
            value = getattr(self.paths, name)
            if value is None or not Path(value).exists():
                raise ConfigError(f"required input '{name}' not found at {value!r}")

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


def _build(section: dict, cls, context: str, **extra):
    known = {f for f in cls.__dataclass_fields__}
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key '{context}.{key}'")
    try:
        return cls(**{**section, **extra})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{context}' section: {exc}") from None


def config_from_dict(tree: dict) -> PipelineConfig:
    unknown = set(tree) - {"paths", "relevance", "features", "learn"}
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    learn_section = dict(tree.get("learn", {}))
    base_seed = learn_section.get("seed", LearnParams.seed)
    cart_section = dict(learn_section.pop("cart", {}))
    forest_section = dict(learn_section.pop("forest", {}))
    svm_section = dict(learn_section.pop("svm", {}))
    forest_depth = {
        key: forest_section.pop(key)
        for key in ("max_depth", "min_samples_leaf")
        if key in forest_section
    }
    forest_section.setdefault("seed", base_seed)
    svm_section.setdefault("seed", base_seed)
    config = PipelineConfig(
        paths=_build(tree.get("paths", {}), PathsConfig, "paths"),
        relevance=_build(tree.get("relevance", {}), RelevanceParams, "relevance"),
        features=_build(tree.get("features", {}), FeatureParams, "features"),
        learn=_build(
            learn_section,
            LearnParams,
            "learn",
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
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(tree, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if overrides:
        tree = _merge(tree, parse_overrides(overrides))
    return config_from_dict(tree)
