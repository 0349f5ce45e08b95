"""Paper-scale layer shapes for the latency experiments.

The accuracy experiments use the scaled-down model zoo, but the latency
models need the *original* layer geometries (ViT-Base on 224x224 images,
ResNet-18, ...) because the paper reports milliseconds for those shapes.
This module expresses every model as a list of :class:`LayerOp` records --
GEMMs, convolutions (as implicit GEMMs) and non-quantizable float ops -- that
the GPU/NPU latency models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class LayerOp:
    """One operation of a model, normalised to GEMM form.

    Attributes
    ----------
    name:
        Human-readable identifier ("block3.mlp.fc1", ...).
    m, n, k:
        GEMM dimensions: output is (m, n), reduction length k.  For a
        convolution, ``m = batch * out_h * out_w``, ``n = out_channels`` and
        ``k = in_channels * kernel**2``.
    kind:
        ``"gemm"`` for quantizable linear/conv operations, ``"float"`` for
        operations kept in 16-bit float (attention softmax, normalisation,
        GELU, elementwise adds).
    quantizable:
        Whether FlexiQ may lower this op's feature channels to 4-bit.  The
        first and last layers of every network are marked non-quantizable.
    feature_channels:
        Number of feature channels (the FlexiQ selection axis); for convs the
        reduction length k equals ``feature_channels * kernel**2``.
    residual_reorder:
        Whether this op's output feeds a residual connection that requires a
        runtime channel reorder after layout optimization.
    """

    name: str
    m: int
    n: int
    k: int
    kind: str = "gemm"
    quantizable: bool = True
    feature_channels: int = 0
    residual_reorder: bool = False

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the op."""
        return int(self.m) * int(self.n) * int(self.k)


# ----------------------------------------------------------------------
# Transformers
# ----------------------------------------------------------------------
def vit_ops(
    batch: int,
    embed_dim: int = 768,
    depth: int = 12,
    num_heads: int = 12,
) -> List[LayerOp]:
    """Layer operations of a ViT/DeiT encoder (defaults = ViT-Base).

    Every variant sees a 224x224 image as 14x14 patches of 16x16 plus a class
    token (197 tokens), with an MLP four times the embedding wide.
    """
    ops: List[LayerOp] = []
    grid, patch, tokens = 224 // 16, 16, 197
    ops.append(
        LayerOp(
            name="patch_embed", m=batch * grid * grid, n=embed_dim,
            k=3 * patch * patch, quantizable=False, feature_channels=3,
        )
    )
    hidden = embed_dim * 4
    rows = batch * tokens
    head_dim = embed_dim // num_heads
    for block in range(depth):
        prefix = f"block{block}"
        for proj in ("q", "k", "v"):
            ops.append(
                LayerOp(
                    name=f"{prefix}.attn.{proj}_proj", m=rows, n=embed_dim,
                    k=embed_dim, feature_channels=embed_dim,
                )
            )
        # Attention score and context matmuls stay in 16-bit float.
        ops.append(
            LayerOp(
                name=f"{prefix}.attn.scores", m=batch * num_heads * tokens,
                n=tokens, k=head_dim, kind="float", quantizable=False,
            )
        )
        ops.append(
            LayerOp(
                name=f"{prefix}.attn.context", m=batch * num_heads * tokens,
                n=head_dim, k=tokens, kind="float", quantizable=False,
            )
        )
        ops.append(
            LayerOp(
                name=f"{prefix}.attn.out_proj", m=rows, n=embed_dim,
                k=embed_dim, feature_channels=embed_dim,
            )
        )
        ops.append(
            LayerOp(
                name=f"{prefix}.mlp.fc1", m=rows, n=hidden, k=embed_dim,
                feature_channels=embed_dim,
            )
        )
        ops.append(
            LayerOp(
                name=f"{prefix}.mlp.fc2", m=rows, n=embed_dim, k=hidden,
                feature_channels=hidden,
            )
        )
        # LayerNorm / GELU / residual adds, kept in fp16.
        ops.append(
            LayerOp(
                name=f"{prefix}.elementwise", m=rows, n=embed_dim, k=4,
                kind="float", quantizable=False,
            )
        )
    ops.append(
        LayerOp(
            name="head", m=batch, n=1000, k=embed_dim,
            quantizable=False, feature_channels=embed_dim,
        )
    )
    return ops


def vit_small_ops(batch: int) -> List[LayerOp]:
    """ViT-Small / DeiT-Small geometry."""
    return vit_ops(batch, embed_dim=384, depth=12, num_heads=6)


def deit_base_ops(batch: int) -> List[LayerOp]:
    return vit_ops(batch, embed_dim=768, depth=12, num_heads=12)


def swin_ops(batch: int, embed_dim: int = 96) -> List[LayerOp]:
    """Layer operations of a Swin transformer (defaults = Swin-Small).

    Small and Base share the stage depths (2, 2, 18, 2), the 224x224 image,
    the 7x7 window and an MLP four times the stage width.
    """
    ops: List[LayerOp] = []
    grid, window, depths = 224 // 4, 7, (2, 2, 18, 2)
    dim = embed_dim
    ops.append(
        LayerOp(
            name="patch_embed", m=batch * grid * grid, n=dim, k=3 * 4 * 4,
            quantizable=False, feature_channels=3,
        )
    )
    for stage, depth in enumerate(depths):
        tokens = grid * grid
        rows = batch * tokens
        hidden = dim * 4
        heads = dim // 32
        for block in range(depth):
            prefix = f"stage{stage}.block{block}"
            for proj in ("q", "k", "v"):
                ops.append(
                    LayerOp(
                        name=f"{prefix}.attn.{proj}_proj", m=rows, n=dim, k=dim,
                        feature_channels=dim,
                    )
                )
            window_tokens = window * window
            num_windows = max(tokens // window_tokens, 1)
            ops.append(
                LayerOp(
                    name=f"{prefix}.attn.scores",
                    m=batch * num_windows * heads * window_tokens,
                    n=window_tokens, k=dim // max(heads, 1),
                    kind="float", quantizable=False,
                )
            )
            ops.append(
                LayerOp(
                    name=f"{prefix}.attn.out_proj", m=rows, n=dim, k=dim,
                    feature_channels=dim,
                )
            )
            ops.append(
                LayerOp(
                    name=f"{prefix}.mlp.fc1", m=rows, n=hidden, k=dim,
                    feature_channels=dim,
                )
            )
            ops.append(
                LayerOp(
                    name=f"{prefix}.mlp.fc2", m=rows, n=dim, k=hidden,
                    feature_channels=hidden,
                )
            )
            ops.append(
                LayerOp(
                    name=f"{prefix}.elementwise", m=rows, n=dim, k=4,
                    kind="float", quantizable=False,
                )
            )
        if stage < len(depths) - 1:
            ops.append(
                LayerOp(
                    name=f"stage{stage}.merge", m=batch * (grid // 2) ** 2,
                    n=dim * 2, k=dim * 4, feature_channels=dim * 4,
                )
            )
            grid //= 2
            dim *= 2
    ops.append(
        LayerOp(
            name="head", m=batch, n=1000, k=dim, quantizable=False,
            feature_channels=dim,
        )
    )
    return ops


# ----------------------------------------------------------------------
# CNNs
# ----------------------------------------------------------------------
def _conv_op(
    name: str, batch: int, in_ch: int, out_ch: int, spatial: int, kernel: int,
    stride: int = 1, quantizable: bool = True, residual_reorder: bool = False,
) -> LayerOp:
    out_spatial = spatial // stride
    return LayerOp(
        name=name,
        m=batch * out_spatial * out_spatial,
        n=out_ch,
        k=in_ch * kernel * kernel,
        quantizable=quantizable,
        feature_channels=in_ch,
        residual_reorder=residual_reorder,
    )


def resnet_ops(
    batch: int,
    stage_blocks: tuple = (2, 2, 2, 2),
    image: int = 224,
    bottleneck: bool = False,
) -> List[LayerOp]:
    """Layer operations of a ResNet (defaults = ResNet-18 on 224x224)."""
    ops: List[LayerOp] = []
    channels = [64, 128, 256, 512]
    # The paper excludes the 3-channel stem from NPU latency (Section 8.3);
    # it is marked non-quantizable and handled by the caller.
    ops.append(_conv_op("stem", batch, 3, 64, image // 2, 7, stride=2, quantizable=False))
    spatial = image // 4
    in_ch = 64
    for stage, blocks in enumerate(stage_blocks):
        out_ch = channels[stage]
        for block in range(blocks):
            stride = 2 if (stage > 0 and block == 0) else 1
            prefix = f"stage{stage}.block{block}"
            if bottleneck:
                mid = out_ch
                expanded = out_ch * 4
                ops.append(_conv_op(f"{prefix}.conv1", batch, in_ch, mid, spatial, 1, stride=1))
                ops.append(_conv_op(f"{prefix}.conv2", batch, mid, mid, spatial, 3, stride=stride))
                ops.append(
                    _conv_op(
                        f"{prefix}.conv3", batch, mid, expanded, spatial // stride, 1,
                        residual_reorder=True,
                    )
                )
                if stride != 1 or in_ch != expanded:
                    ops.append(
                        _conv_op(f"{prefix}.downsample", batch, in_ch, expanded, spatial, 1, stride=stride)
                    )
                in_ch = expanded
            else:
                ops.append(_conv_op(f"{prefix}.conv1", batch, in_ch, out_ch, spatial, 3, stride=stride))
                ops.append(
                    _conv_op(
                        f"{prefix}.conv2", batch, out_ch, out_ch, spatial // stride, 3,
                        residual_reorder=True,
                    )
                )
                if stride != 1 or in_ch != out_ch:
                    ops.append(
                        _conv_op(f"{prefix}.downsample", batch, in_ch, out_ch, spatial, 1, stride=stride)
                    )
                in_ch = out_ch
            spatial //= stride
    ops.append(
        LayerOp(
            name="head", m=batch, n=1000, k=in_ch, quantizable=False,
            feature_channels=in_ch,
        )
    )
    return ops


def resnet50_ops(batch: int, image: int = 224) -> List[LayerOp]:
    return resnet_ops(batch, stage_blocks=(3, 4, 6, 3), image=image, bottleneck=True)


def resnet34_ops(batch: int, image: int = 224) -> List[LayerOp]:
    return resnet_ops(batch, stage_blocks=(3, 4, 6, 3), image=image, bottleneck=False)


#: Builder of each registry model's paper-scale layer operations, by name.
_SHAPES: Dict[str, Callable[[int], List[LayerOp]]] = {
    "vit_base": vit_ops,
    "deit_base": deit_base_ops,
    "vit_small": vit_small_ops,
    "deit_small": vit_small_ops,
    "swin_small": swin_ops,
    "swin_base": lambda batch: swin_ops(batch, embed_dim=128),
    "resnet18": resnet_ops,
    "resnet34": resnet34_ops,
    "resnet50": resnet50_ops,
    "resnet20": lambda batch: resnet_ops(batch, stage_blocks=(3, 3, 3), image=32),
    "mobilenet_v2": lambda batch: resnet_ops(batch, stage_blocks=(1, 2, 3, 4), image=224),
}


def model_ops(model_name: str, batch: int) -> List[LayerOp]:
    """Paper-scale layer operations for a registry model name."""
    if model_name not in _SHAPES:
        raise KeyError(f"no workload shapes registered for {model_name!r}")
    return _SHAPES[model_name](batch)
