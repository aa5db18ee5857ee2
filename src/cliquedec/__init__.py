"""Canonical tree- and graph-decompositions of chordal graphs into cliques,
including periodic covers presented by voltage graphs."""

from .chordal import (
    clique_tree,
    dirac_check,
    is_chordal,
    is_r_chordal,
    is_r_locally_chordal,
    maximal_cliques,
    minimal_separators,
    perfect_elimination_ordering,
)
from .covers import (
    CoverWindow,
    FoldResult,
    GraphDecomposition,
    VoltagePresentation,
    derive_window,
    fold,
    fold_pipeline,
    lift_project_clique,
    periodic_N,
    r_acyclic_check,
    theorem3_pipeline,
    verify_cover,
    verify_graph_decomposition,
)
from .graph import Graph, from_edge_list
from .nested import NestedSetLevels, construct_N, crossing_count, verify_N
from .separations import (
    Bottleneck,
    Separation,
    beta,
    classify,
    min_clique_separator,
    relate,
    separation_from_separator,
)
from .symmetry import (
    AutomorphismSet,
    automorphism_generators,
    verify_canonical_td,
)
from .treedec import (
    TreeDecomposition,
    build_td_from_nested,
    classify_td,
    clique_in_bag,
    contract_to_maximal,
    disjoint_union_bags_lemma_check,
    induced_separation,
    verify_td,
)

__version__ = "0.1.0"
