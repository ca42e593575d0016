"""Shared foundations: expressions, values, RNG, distributions, memo
and result tables."""

from .errors import (
    AnalysisError,
    EvaluationError,
    ModelError,
    ParseError,
    QueryError,
    ReproError,
    SearchLimitError,
    TaskError,
    TestFailure,
)
from .expressions import (
    Assignment,
    BinOp,
    Const,
    Expr,
    FALSE,
    Index,
    Ite,
    TRUE,
    UnOp,
    Var,
    conjoin,
    lift,
)
from .values import Declarations, Env, Valuation
from .rng import RandomSource, ensure_rng
from .distributions import (
    Dirac,
    Distribution,
    Exponential,
    Uniform,
    Weighted,
    delay_distribution,
)
from .memo import MemoTable
from .tables import ResultTable, format_number

__all__ = [
    "AnalysisError", "EvaluationError", "ModelError", "ParseError",
    "QueryError", "ReproError", "SearchLimitError", "TaskError",
    "TestFailure",
    "Assignment", "BinOp", "Const", "Expr", "FALSE", "Index", "Ite",
    "TRUE", "UnOp", "Var", "conjoin", "lift",
    "Declarations", "Env", "Valuation",
    "RandomSource", "ensure_rng",
    "Dirac", "Distribution", "Exponential", "Uniform", "Weighted",
    "delay_distribution",
    "MemoTable",
    "ResultTable", "format_number",
]
