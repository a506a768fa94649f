"""The two building blocks of the hierarchical model: GRU cells and
attention, shown in isolation.

The update gate z blends the previous state with a candidate state:
forcing z to 0 freezes the state, forcing z to 1 replaces it. Attention
turns arbitrary scores into a convex combination, so a dominant score
selects its vector exactly.
"""

import numpy as np

from controkit import autodiff as ad
from controkit.embeddings import EmbeddingTable
from controkit.gru import gru_arrays, gru_sequence
from controkit.models.han import HanParams, han_forward
from controkit.textprep import Vocabulary

rng = np.random.default_rng(7)

# --- a GRU over a short sequence ---------------------------------------------
# gru_sequence runs both directions of the layer over every step of a batch of
# sequences as one tape node; row i * T + t of the input is step t of sequence
# i, and row i * T + t of the output is direction 0's state after reading steps
# 0..t next to direction 1's after reading steps T-1..t.
w, u, b = gru_arrays(input_dim=3, hidden_dim=4, rng=rng, scale=0.4)


def register(graph, prefix):
    """The layer's arrays as parameters of ``graph``: the cell gru_sequence reads."""
    return tuple(graph.parameter(f"{prefix}.{name}", arr) for name, arr in zip("wub", (w, u, b)))


xs = rng.normal(size=(5, 3))
graph = ad.Graph(np.float64)
states = gru_sequence(graph.constant(xs), register(graph, "demo"), n_rows=1)
print("forward | backward states after each of 5 steps:\n", np.round(states.data, 3))
print("tape nodes: 3 parameters (w, u, b) + input + 1 GRU node =", len(graph.nodes))

# a masked step keeps the state it had
graph = ad.Graph(np.float64)
masked = gru_sequence(graph.constant(xs), register(graph, "masked"), n_rows=1,
                      mask=np.array([[1, 1, 0, 0, 1]]))
forward = masked.data[:, :4]
print("masked steps 2 and 3 (counting from 0) keep step 1's forward state:",
      np.array_equal(forward[1], forward[2]) and np.array_equal(forward[1], forward[3]))

# force the update gate shut through z's rows of b: the state never leaves its zero start
b[:, :4] = -np.inf
graph = ad.Graph(np.float64)
frozen = gru_sequence(graph.constant(xs), register(graph, "frozen"), n_rows=1)
print("z=0 keeps h exactly:", np.array_equal(frozen.data, np.zeros((5, 8))))

# --- attention on a toy document ---------------------------------------------
vocab = Vocabulary.from_tokens(
    ["the", "debate", "was", "calm", "then", "riots", "erupted", "downtown"], {})
emb = EmbeddingTable.random(vocab, dim=8, rng=rng)
# larger-than-default init so the untrained attention is visibly non-uniform
han = HanParams.random(emb, rng, hidden_dim=4, scale=0.9, max_sentences=30,
                       max_words_per_sentence=50)

sentences = [
    [vocab.index(w) for w in "the debate was calm".split()],
    [vocab.index(w) for w in "then riots erupted downtown".split()],
]
probs, word_attention, sentence_attention = han_forward(sentences, han)

print("\nclass probabilities:", np.round(probs, 3))
for sent, weights in zip(["the debate was calm", "then riots erupted downtown"],
                         word_attention):
    pairs = ", ".join(f"{w}:{a:.2f}" for w, a in zip(sent.split(), weights))
    print(f"word attention  [{pairs}]  (sums to {weights.sum():.6f})")
print("sentence attention:", np.round(sentence_attention, 3),
      f"(sums to {sentence_attention.sum():.6f})")
print("single-word sentence gets weight exactly 1:",
      han_forward([[2]], han)[1][0].tolist() == [1.0])
