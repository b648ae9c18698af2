"""Tweet sentiment classification with from-scratch recurrent networks.

The pipeline: preprocess raw tweets into a clean corpus and vocabulary, train
skip-gram word embeddings, train a standard or bidirectional RNN classifier
with hand-derived BPTT, evaluate it, and apply it across the corpus over time.
"""

__version__ = "0.1.0"
