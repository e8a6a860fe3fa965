"""System-identification toolkit around a univariate-ReLU network:
polynomial-NARX initialization via Hessian tensor decomposition, variable
projection training, free-run NARX evaluation, piecewise-linear region
extraction, and a hysteretic benchmark data generator."""

from .dataset import (
    RegressionDataset,
    RegressorSpec,
    TimeSeriesData,
    build_regressors,
    load_csv,
    rmse,
    rmse_db,
    save_csv,
    score_free_run,
    simulate_free_run,
)
from .network import UReluNet, bias_grid, build_B, forward, make_net, param_count, transform
from .polyfit import PolyNarxModel, PolyTerm, enumerate_terms, frols_select, monomials
from .varpro import TrainReport, solve_weights, train, vp_jacobian, vp_residual

__all__ = [
    "RegressionDataset",
    "RegressorSpec",
    "TimeSeriesData",
    "build_regressors",
    "load_csv",
    "rmse",
    "rmse_db",
    "save_csv",
    "score_free_run",
    "simulate_free_run",
    "UReluNet",
    "bias_grid",
    "build_B",
    "forward",
    "make_net",
    "param_count",
    "transform",
    "PolyNarxModel",
    "PolyTerm",
    "enumerate_terms",
    "frols_select",
    "monomials",
    "TrainReport",
    "solve_weights",
    "train",
    "vp_jacobian",
    "vp_residual",
]
