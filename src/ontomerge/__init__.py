"""Merging of conflicting terminological knowledge bases via RCC-5 networks.

Pipeline: parse strict-normal-form ontologies, translate their asserted
subsumption/disjointness axioms into RCC-5 constraint networks, merge the
networks by distance-guided relaxation until consistent, pick the
scenario that raises the fewest conflicts with the sources' closed
ABoxes, and translate it back into an ontology.
"""

from .distance import (
    NEIGHBORHOOD_EDGES,
    DistanceTable,
    base_distance,
    constraint_distance,
    distance_table,
    profile_distance,
    render_distance_table,
)
from .merging import MergeIteration, MergeTrace, merge, relax, val
from .ontology import (
    Assertion,
    Axiom,
    Classification,
    ClosedABox,
    ConceptAssertion,
    Disjointness,
    ExistsLeft,
    ExistsRight,
    NameClashError,
    NotNormalFormError,
    Ontology,
    OntologyError,
    OntologySyntaxError,
    RoleAssertion,
    Subsumption,
    UnsatisfiableConceptError,
    classify,
    closed_abox_to_json,
    deductive_closure,
    format_ontology,
    format_statement,
    ontology_to_json,
    parse_ontology,
)
from .rcc5 import (
    EMPTY,
    EQ,
    PO,
    PP,
    DR,
    SCENARIO_LABELS,
    UNIVERSAL,
    BaseRelation,
    PPi,
    QCN,
    Relation,
    Scenario,
    algebraic_closure,
    compose,
    compose_relations,
    converse,
    enumerate_scenarios,
    is_consistent,
    qcn_from_json,
    qcn_to_dot,
    qcn_to_json,
)
from .selection import (
    ConflictReport,
    PairConflicts,
    ScenarioScore,
    nb_conflicts,
    pair_conflicts,
    scenario_distance,
    select_scenario,
)
from .translate import (
    ForwardTranslation,
    FreshNamePool,
    backward,
    forward,
)

__version__ = "0.1.0"
