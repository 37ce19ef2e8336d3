"""nestslice: nested weight-sharing subnetworks for width-adaptive inference.

Convert a small pre-trained network into a family of nested subnetworks:
score units by accumulated-gradient-times-weight importance, permute each
layer into descending-importance order (function preserving), choose the
per-layer slicing points with an iterative knapsack planner under MAC
budgets, fine-tune all rows jointly with weight sharing, and switch
between subnetworks by rewriting a handful of integers. A cache simulator
quantifies why the transposed weight layout keeps accesses contiguous,
and a bounds lab checks the planner's approximation guarantees
empirically.
"""

import os

# One BLAS thread unless the environment sets a thread count: the matrices
# here are small, and autograd.backward already runs each minibatch as two
# halves on two threads, whose BLAS calls would otherwise contend for the
# same cores. BLAS reads this when numpy is first imported, so it holds
# only where this package is imported first (its CLI, and scripts that
# import it before numpy).
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"

from .autograd import (Adam, GradStore, TrainConfig,
                       accumulate_importance_grads, backward, sgd_step)
from .bounds import (BoundReport, brute_opt, bu_two_stage, find_split_item,
                     td_two_stage, tight_instance_bu, tight_instance_td,
                     verify_bounds, violation_search)
from .cachesim import (CacheConfig, RP2040_CACHE, TraceStats, bench_report,
                       simulate, trace_matmul)
from .datasets import Dataset, load_idx, synth_blobs
from .errors import (ConfigError, DataError, ExtentError,
                     InfeasiblePlanError, IntegrityError, NestsliceError,
                     NumericError, ShapeMismatchError)
from .finetune import (compute_pi, evaluate, evaluate_rows,
                       few_shot_bu_td_harness, finetune_fewshot,
                       finetune_joint, train_single)
from .importance import (apply_permutation, apply_to_scores,
                         permute_descending, score_units)
from .nest import (CACHE_OPTIMIZED, STANDARD, NestedModel, SwitchStats,
                   load_bundle, save_bundle)
from .netgraph import (LayerSpec, ModelGraph, build_reference, forward,
                       full_macs, load_manifest, plan_macs, save_manifest,
                       truncate, unit_macs)
from .planner import (DwBlock, DwInstance, DwSolution, KnapsackInstance,
                      KnapsackSolution, SlicingPlan, make_plan,
                      plan_baseline, plan_bottom_up, plan_depthwise,
                      plan_top_down, solve_depthwise, solve_exact,
                      solve_iterative)
from .tensor import copy_counter, transpose

__version__ = "0.1.0"
