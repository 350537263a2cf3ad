"""Entity-enriched multi-task extractive QA over clinical-style text.

A framework-free stack: a float64 autodiff tensor core, a word-level
text pipeline, a synthetic clinical QA corpus generator that tags the
entities it writes, paraphrase-level train/test splitting, a transformer
encoder with entity-information fusion and span / logical-form /
evidence heads, and a full evaluation suite.

Importing the package raises glibc's mmap and trim thresholds for the
whole process, so freed heap stays mapped (README "Memory", "Allocator").
"""

import ctypes

from .corpus import (LOGICAL_FORMS, QAExample, build_templates,
                     generate_corpus, instantiate_questions, lf_tokenize)
from .metrics import (EvalReport, evidence_scores, lf_exact_scores,
                      lf_relaxed_scores, span_em, token_f1)
from .model import ModelConfig, decode_span, forward, fuse, init_params
from .optim import AdamState, adam_step
from .splits import SplitAssignment, filter_examples, make_assignment
from .tensor import Tensor, attention, gradcheck, softmax_cross_entropy
from .textpipe import Vocab, encode_pair, tokenize
from .trainer import TrainConfig, evaluate_pairs, run_matrix, train

__version__ = "0.1.0"

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Keep freed heap in the process instead of returning it to the kernel,
    which numpy's next arrays would fault back in. Off glibc, do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_heap()

__all__ = [
    "AdamState", "adam_step", "attention", "build_templates", "decode_span",
    "encode_pair", "EvalReport", "evaluate_pairs", "evidence_scores",
    "filter_examples", "forward", "fuse", "generate_corpus", "gradcheck",
    "init_params", "instantiate_questions", "lf_exact_scores",
    "lf_relaxed_scores", "lf_tokenize", "LOGICAL_FORMS", "make_assignment",
    "ModelConfig", "QAExample", "run_matrix", "softmax_cross_entropy",
    "span_em", "SplitAssignment", "Tensor", "token_f1", "tokenize", "train",
    "TrainConfig", "Vocab",
]
