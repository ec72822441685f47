"""Classifiers and the cross-validation evaluation harness."""

from nextday.learn.cv import Dataset, f_score, kfold_cv, metrics, stratified_folds
from nextday.learn.svm import SvmModel, train_svm
from nextday.learn.tree import TreeModel, train_cart, train_forest

__all__ = [
    "Dataset",
    "f_score",
    "kfold_cv",
    "metrics",
    "stratified_folds",
    "SvmModel",
    "train_svm",
    "TreeModel",
    "train_cart",
    "train_forest",
]
