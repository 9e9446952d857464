"""Exact enumeration, asymptotic estimation and uniform sampling of graphs
and multigraphs whose vertex degrees all lie in a prescribed set."""

from .degree_sets import INFINITE, DegreeSet, parse_degree_set
from .marked import marked_multigraph_weight
from .multigraph import Multigraph
from .saddlepoint import (AsymptoticCount, InfeasibleRegimeError, Regime,
                          SaddlePoint, acceptance_probability, loop_intensity,
                          mean_degree, mean_degree_slope,
                          multigraph_count_asymptotic, resolve, saddle_point,
                          simple_graph_count_asymptotic, solve_mean_degree)
from .sampling import (DegreeSequenceSampler, SampleReport, SamplerExhausted,
                       attempt_budget, boltzmann_degree_law, boltzmann_sample,
                       boltzmann_tune, make_rng, pair_half_edges)
from .tables import (CoefficientTable, build_table, infeasibility_reason,
                     multigraph_weight, power_coefficient)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "AsymptoticCount",
    "CoefficientTable",
    "DegreeSequenceSampler",
    "DegreeSet",
    "InfeasibleRegimeError",
    "Multigraph",
    "Regime",
    "SaddlePoint",
    "SampleReport",
    "SamplerExhausted",
    "acceptance_probability",
    "attempt_budget",
    "boltzmann_degree_law",
    "boltzmann_sample",
    "boltzmann_tune",
    "build_table",
    "infeasibility_reason",
    "loop_intensity",
    "make_rng",
    "marked_multigraph_weight",
    "mean_degree",
    "mean_degree_slope",
    "multigraph_count_asymptotic",
    "multigraph_weight",
    "pair_half_edges",
    "parse_degree_set",
    "power_coefficient",
    "resolve",
    "saddle_point",
    "simple_graph_count_asymptotic",
    "solve_mean_degree",
]
