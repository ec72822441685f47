"""Classifiers and the cross-validation evaluation harness."""

from nextday.config import CartConfig, ForestConfig, SvmConfig
from nextday.learn.cv import (
    Dataset,
    DatasetError,
    EvalReport,
    f_score,
    kfold_cv,
    metrics,
    stratified_folds,
)
from nextday.learn.svm import SvmModel, train_svm
from nextday.learn.tree import CartModel, ForestModel, train_cart, train_forest

__all__ = [
    "Dataset",
    "DatasetError",
    "EvalReport",
    "f_score",
    "kfold_cv",
    "metrics",
    "stratified_folds",
    "SvmConfig",
    "SvmModel",
    "train_svm",
    "CartConfig",
    "CartModel",
    "ForestConfig",
    "ForestModel",
    "train_cart",
    "train_forest",
]
