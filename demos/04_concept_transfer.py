"""Reuse a coarse source tagger when the target schema refines its slots.

The source task labels plain concepts (city, day, ...).  The target
task wants refined slots (from.city, to.city, ...) but has little
data.  Three systems, increasingly aware of the shared structure:

  JS_T      one softmax over target slots, target data only
  AC_TS     per-dimension heads, pretrained on source, fine-tuned
  ACD_TS_1  frozen source stage plus a second net for dimension 2

Expect about half a minute of training.  The source-trained model is
computed once and shared where two systems need the same one.
"""

import time

from atomslot.corpus import builtin_flight_grammar, generate_synthetic, relabel_collapse
from atomslot.models import evaluate_model, learning_curve
from atomslot.neural import TrainingConfig
from atomslot.ontology import collapse_ontology

SYSTEMS = ("JS_T", "AC_TS", "ACD_TS_1")
SIZES = (25, 100)

grammar, ontology = builtin_flight_grammar()
source_ontology, mapping = collapse_ontology(ontology, 1)

target_pool = generate_synthetic(grammar, ontology, 400, seed=11, role="target")
target_valid = generate_synthetic(grammar, ontology, 60, seed=12, role="validation")
test = generate_synthetic(grammar, ontology, 150, seed=13, role="test")
source_train = relabel_collapse(
    generate_synthetic(grammar, ontology, 1000, seed=14, role="source"), mapping
)
source_valid = relabel_collapse(
    generate_synthetic(grammar, ontology, 80, seed=15, role="validation"), mapping
)

config = TrainingConfig(
    learning_rate=0.08, epochs=15, dropout=0.1, emb_dim=24, hidden=24, seed=7
)

scores = {}
started = time.monotonic()
for system, size, result in learning_curve(
    SYSTEMS, SIZES, source_ontology, ontology,
    source_train, source_valid, target_pool, target_valid, config,
):
    scores[system, size] = evaluate_model(result.model, test).f1
    print(f"{system:<10} {size:>4} target sentences  F1 {scores[system, size]:6.2f}")

print(f"\n{time.monotonic() - started:.0f}s total")
print("\ntest F1 by target training size:")
print("system    " + "".join(f"{n:>8}" for n in SIZES))
for system in SYSTEMS:
    print(f"{system:<10}" + "".join(f"{scores[system, n]:8.2f}" for n in SIZES))
