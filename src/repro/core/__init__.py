"""Core keyword-query disambiguation framework (Chapters 2–3).

This package implements the shared machinery of all systems in the thesis:
keyword queries, structured queries (relational-algebra join paths with
``contains`` predicates), query templates, keyword/query interpretations with
sub-query subsumption, the interpretation-space generator and query hierarchy,
and the probabilistic interpretation model (ATF, template priors).
"""

from repro.core.autocomplete import AutoCompleter, Completion
from repro.core.cleaning import Correction, QueryCleaner, edit_distance
from repro.core.generator import GeneratorConfig, InterpretationGenerator
from repro.core.hierarchy import QueryHierarchy
from repro.core.interpretation import (
    Atom,
    Interpretation,
    OperatorAtom,
    TableAtom,
    ValueAtom,
    atoms_subsume,
)
from repro.core.keywords import Keyword, KeywordQuery
from repro.core.options import AtomSetOption, ConceptOption, Option
from repro.core.probability import (
    ATFModel,
    DivQModel,
    ProbabilityModel,
    TFIDFModel,
    TemplateCatalog,
    UniformModel,
)
from repro.core.query import StructuredQuery
from repro.core.segmentation import QuerySegmenter, Segmentation
from repro.core.snippets import cluster_results, make_snippet
from repro.core.templates import QueryTemplate, generate_templates
from repro.core.topk import TopKExecutor

__all__ = [
    "ATFModel",
    "Atom",
    "AtomSetOption",
    "AutoCompleter",
    "Completion",
    "ConceptOption",
    "Correction",
    "OperatorAtom",
    "Option",
    "QueryCleaner",
    "QuerySegmenter",
    "Segmentation",
    "TFIDFModel",
    "TopKExecutor",
    "cluster_results",
    "edit_distance",
    "make_snippet",
    "DivQModel",
    "GeneratorConfig",
    "Interpretation",
    "InterpretationGenerator",
    "Keyword",
    "KeywordQuery",
    "ProbabilityModel",
    "QueryHierarchy",
    "QueryTemplate",
    "StructuredQuery",
    "TableAtom",
    "TemplateCatalog",
    "UniformModel",
    "ValueAtom",
    "atoms_subsume",
    "generate_templates",
]
