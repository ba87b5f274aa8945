"""dualda: dual-module adversarial unsupervised domain adaptation, built on
a minimal reverse-mode autodiff core with a gradient reversal layer."""

from .autodiff import (Tape, Tensor, add, backward, cross_entropy, grad_reverse,
                       matmul, softmax, sub)
from .data import (DomainDataset, batches, dataset_checksum, domain_shift,
                   gen_blob_shift, gen_two_moons, load_idx, write_idx_images,
                   write_idx_labels)
from .errors import (ConfigError, ConsistencyError, ContractError,
                     DimensionError, DomainError, FormatError)
from .losses import discrepancy
from .model import (DualModel, TrainingPlan, Variant, forward_path, predict,
                    variant_plan)
from .nn import (BoundComponents, BoundStack, ComponentSet, LinearLayer,
                 NetworkSpec, Stack, build_component_set, init_stack,
                 load_params, save_params)
from .optim import SGD, Schedule, lambda_at, lr_at
from .trainer import (MetricsRecord, TrainConfig, compute_metrics, step1_mcd,
                      step2_modules, step3_dual, train)
from .cli import (RunConfig, ablation_matrix, build_datasets,
                  export_embeddings, parse_config, run_experiment)

__version__ = "0.1.0"
