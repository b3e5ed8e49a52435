"""Train a joint-slot tagger on generated data and score it.

Runs in well under a minute: 250 training sentences, a small net, a
fixed learning rate.  Leave learning_rate unset to sweep the built-in
grid and keep the candidate with the best validation F1.
"""

import tempfile

from atomslot.corpus import builtin_flight_grammar, generate_synthetic, preprocess
from atomslot.models import (
    JS,
    decode,
    evaluate_model,
    format_train_log,
    load_model,
    save_model,
    train,
)
from atomslot.neural import TrainingConfig

grammar, ontology = builtin_flight_grammar()
train_raw = generate_synthetic(grammar, ontology, 250, seed=1)
valid = generate_synthetic(grammar, ontology, 40, seed=2)
test = generate_synthetic(grammar, ontology, 40, seed=3)

train_corpus, _ = preprocess(train_raw)

config = TrainingConfig(
    learning_rate=0.08, epochs=12, dropout=0.1, emb_dim=24, hidden=24, seed=0
)
model, log = train(JS, ontology, train_corpus, valid, config)

print(format_train_log(log))

report = evaluate_model(model, test)
print(report.text_report())

sentence = test[0].tokens
print("one decoded sentence:")
for token, tag in zip(sentence, decode(model, sentence)):
    print(f"  {token:<12} {tag}")

# Checkpoints are plain text bundles; reloading reproduces the tags.
with tempfile.TemporaryDirectory() as tmp:
    save_model(model, tmp, config)
    assert decode(load_model(tmp), sentence) == decode(model, sentence)
print("\nsaved and reloaded, identical output")
