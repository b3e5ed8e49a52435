"""Slot filling with atomic-concept ontologies.

Slots are ordered branches of small per-dimension concept vocabularies.
The package builds BLSTM sequence labelers (pure numpy) under three
factorizations of the tagging distribution, adapts them across ontologies
that grow new concepts, and reproduces concept-transfer experiments on
synthetic corpora at desk scale.
"""

from .corpus import (
    Corpus,
    CorpusError,
    GrammarConfig,
    OverlapError,
    ParseError,
    SlotSpan,
    TaggedUtterance,
    TokenVocabulary,
    builtin_flight_grammar,
    generate_synthetic,
    iob_to_spans,
    parse_tag,
    perturb_test_set,
    preprocess,
    read_corpus,
    read_grammar,
    relabel_collapse,
    rewrite_digits,
    spans_to_iob,
    subset_corpus,
    write_corpus,
)
from .evaluation import (
    EvalError,
    EvalReport,
    RunSummary,
    SlotCounts,
    compare_runs,
    comparison_table,
    evaluate,
    round2,
)
from .models import (
    AdaptResult,
    EmptyCorpus,
    LabelNotInOntology,
    ModelError,
    PRESETS,
    TaggerModel,
    TrainingDiverged,
    TrainLog,
    adapt,
    adjust_nn_arch,
    decode,
    evaluate_model,
    load_model,
    predict_corpus,
    run_experiment,
    save_model,
    train,
    train_acd,
)
from .neural import (
    GradCheckReport,
    ModelParams,
    NeuralError,
    NonFiniteGradient,
    ShapeSpec,
    TrainingConfig,
    gradient_check,
    init_params,
    load_params,
    rng_stream,
    save_params,
)
from .ontology import (
    DepthMismatch,
    DisjointnessViolation,
    DuplicateSlot,
    InvalidBranch,
    Ontology,
    OntologyDiff,
    OntologyError,
    UnknownSlot,
    branch_to_slot,
    build_ontology,
    canonical_slot_name,
    collapse_ontology,
    ontology_diff,
    ontology_hash,
    read_ontology,
    slot_to_branch,
    write_ontology,
)
from .workers import WorkerLost

__version__ = "0.1.0"
