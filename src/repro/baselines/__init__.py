"""Baseline quantization schemes the paper compares against.

* :mod:`repro.baselines.uniform` -- channel-wise uniform INT4/INT8 (the
  Table 2 baselines).
* :mod:`repro.baselines.hawq` -- HAWQ-v3-style layer-wise mixed precision
  driven by a sensitivity proxy.
* :mod:`repro.baselines.robustquant` -- RobustQuant-style finetuning for
  robustness across bitwidths.
* :mod:`repro.baselines.anyprecision` -- AnyPrecision-style multi-bitwidth
  training from a single model.
* :mod:`repro.baselines.ptmq` -- PTMQ-style post-training multi-bit
  quantization with per-bitwidth scale sets.

These are faithful-in-spirit reimplementations at the scale of the synthetic
model zoo: each reproduces the mechanism that defines the scheme (what is
quantized, at which granularity, and how multi-precision support is obtained)
rather than the exact original training recipes.

Everything around that mechanism is shared with FlexiQ itself, one body per
rule: batches come from :func:`repro.data.calibration.calibration_batches`,
training from :func:`repro.train.loop.sgd_epochs`, re-calibration from
:func:`repro.quant.qmodel.recalibrate_model`, a bit assignment from
:func:`repro.quant.qmodel.greedy_average_bits` and every average bitwidth
from :func:`repro.quant.qmodel.model_average_bits`.  A method supplies only
what defines it: RobustQuant and AnyPrecision a per-batch loss (one sampled
bitwidth; every bitwidth, highest first), HAWQ and PTMQ a layer order (by
sensitivity; by size).
"""

from repro.baselines.uniform import quantize_uniform, uniform_accuracy_sweep
from repro.baselines.hawq import HawqResult, hawq_layerwise_quantize
from repro.baselines.robustquant import robustquant_finetune
from repro.baselines.anyprecision import anyprecision_finetune
from repro.baselines.ptmq import PTMQModel, ptmq_quantize

__all__ = [
    "HawqResult",
    "PTMQModel",
    "anyprecision_finetune",
    "hawq_layerwise_quantize",
    "ptmq_quantize",
    "quantize_uniform",
    "robustquant_finetune",
    "uniform_accuracy_sweep",
]
