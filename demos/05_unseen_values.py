"""Score taggers on a test set whose slot values were never in training.

perturb_test_set swaps each slot's value for one drawn from a sibling
slot (same base concept, different refinement), so "boston" can show
up after "arriving in" even though this training subset only ever put
it after "leaving".  Nothing about the sentence frames changes, only
the values.  The comparison to watch is the margin between systems on
the swapped set: a model that leans on memorized token identity gives
ground there, one that reads the surrounding context keeps its lead.
"""

from atomslot.corpus import (
    builtin_flight_grammar,
    generate_synthetic,
    perturb_test_set,
    relabel_collapse,
    subset_corpus,
)
from atomslot.models import evaluate_model, run_experiment
from atomslot.neural import TrainingConfig
from atomslot.ontology import collapse_ontology

grammar, ontology = builtin_flight_grammar()
source_ontology, mapping = collapse_ontology(ontology, 1)

target_pool = generate_synthetic(grammar, ontology, 400, seed=11)
target_valid = generate_synthetic(grammar, ontology, 60, seed=12)
test = generate_synthetic(grammar, ontology, 150, seed=13)
source_train = relabel_collapse(
    generate_synthetic(grammar, ontology, 1000, seed=14), mapping
)
source_valid = relabel_collapse(
    generate_synthetic(grammar, ontology, 80, seed=15), mapping
)

SIZE = 100
config = TrainingConfig(
    learning_rate=0.08, epochs=15, dropout=0.1, emb_dim=24, hidden=24, seed=7
)

# Values are swapped relative to what this particular training subset saw.
train_subset = subset_corpus(target_pool, SIZE, config.seed)
perturbed = perturb_test_set(train_subset, test, ontology, seed=7)

changed = sum(1 for a, b in zip(test, perturbed) if a.tokens != b.tokens)
print(f"perturbation touched {changed} of {len(test)} test sentences\n")

scores = {}
for system in ("JS_T", "ACD_TS_1"):
    result = run_experiment(
        system, source_ontology, ontology,
        source_train, source_valid, target_pool, target_valid,
        config, subset=SIZE,
    )
    scores[system] = (
        evaluate_model(result.model, test).f1,
        evaluate_model(result.model, perturbed).f1,
    )
    matched, shifted = scores[system]
    print(f"{system:<10} matched F1 {matched:6.2f}   unseen-value F1 {shifted:6.2f}")

margin = scores["ACD_TS_1"][1] - scores["JS_T"][1]
print(f"\nmargin on the swapped set: {margin:.2f} in favor of the factored system")
