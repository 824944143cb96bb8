"""Tensor-product binding/unbinding encoder-decoder for program generation.

The package maps tokenized word problems to straight-line programs of
relational tuples ``(relation, arg1, arg2)``.  Subpackages:

- ``tensor``: float64 autodiff engine (gradient tape, Adam)
- ``tpr``: order-2 binding theory the model is tested against (dual bases,
  residual decomposition)
- ``model``: filler/role-LSTM encoder, reasoning MLP, tuple decoder
- ``training``: teacher-forced training, greedy decoding, checkpoints
- ``formal_lang``: tuple grammar, program executors, evaluation metrics
- ``data``: dataset loading, number linking, preprocessing, vocabularies
- ``analysis``: role/filler assignment reports, PCA, k-means, plots
- ``cli``: command-line entry points
"""

__version__ = "0.1.0"

from .tensor import GradientTape, Tensor, backward

__all__ = ["GradientTape", "Tensor", "backward", "__version__"]
