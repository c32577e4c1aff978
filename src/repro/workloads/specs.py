"""The five bundled benchmark specs: SPECint95 analogues.

Each spec mirrors the *structural* character the paper reports for its
SPECint95 input (Tables 1-3, Figure 8), scaled to interpreter-friendly
trace sizes:

========== ===============================================================
099.go     large functions, many paths, per-iteration path reselection
           (phase 1) and high selector variety -> weakest dedup and a
           near-neutral TWPP conversion (the paper's go is the one
           benchmark where the compacted TWPP is slightly *larger*).
126.gcc    many functions, moderate paths, moderate reuse; biggest DCG.
130.li     small interpreter-style functions, few paths, deep call
           layering -> strong dedup and strong series compaction.
132.ijpeg  loop-dominated kernels: long loops staying on one path for
           long phases -> dictionary and arithmetic-series compaction
           shine.
134.perl   tiny selector variety and one or two paths per function:
           almost every call repeats a known trace -> extreme TWPP and
           overall factors (the paper's 85x / 64x outlier).
========== ===============================================================

Use :func:`workload` to build a (program, spec) pair; every bench table
iterates ``WORKLOAD_NAMES`` in order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from ..ir.module import Program
from .generator import WorkloadSpec, generate_program

GO_LIKE = WorkloadSpec(
    name="go-like",
    seed=990099,
    n_functions=36,
    layers=3,
    main_iterations=420,
    loop_iters=(5, 10),
    paths=(10, 20),
    path_length=(2, 5),
    path_skew=0.5,
    phase=(1, 1),
    depth_shrink=0.6,
    variety_choices=(16, 24, 32, 48, 64, 96),
    variety_skew=0.5,
    branching=1.1,
)

GCC_LIKE = WorkloadSpec(
    name="gcc-like",
    seed=126126,
    n_functions=110,
    layers=4,
    main_iterations=500,
    loop_iters=(6, 12),
    paths=(4, 12),
    path_length=(2, 4),
    path_skew=1.0,
    phase=(1, 3),
    depth_shrink=0.65,
    variety_choices=(2, 4, 8, 12, 16, 24, 32),
    variety_skew=0.8,
    branching=1.1,
)

LI_LIKE = WorkloadSpec(
    name="li-like",
    seed=130130,
    n_functions=48,
    layers=5,
    main_iterations=400,
    loop_iters=(4, 8),
    paths=(2, 6),
    path_length=(2, 3),
    path_skew=1.4,
    phase=(2, 4),
    depth_shrink=0.75,
    variety_choices=(3, 4, 6, 8, 12, 16),
    variety_skew=1.0,
    branching=1.35,
)

IJPEG_LIKE = WorkloadSpec(
    name="ijpeg-like",
    seed=132132,
    n_functions=22,
    layers=3,
    main_iterations=110,
    loop_iters=(20, 52),
    paths=(1, 3),
    path_length=(3, 6),
    path_skew=2.0,
    phase=(8, 24),
    depth_shrink=0.7,
    variety_choices=(2, 3, 4, 6, 8),
    variety_skew=1.0,
    branching=0.0,
    prologue_calls=(1, 2),
)

PERL_LIKE = WorkloadSpec(
    name="perl-like",
    seed=134134,
    n_functions=44,
    layers=4,
    main_iterations=260,
    loop_iters=(14, 36),
    paths=(1, 3),
    path_length=(2, 4),
    path_skew=2.6,
    phase=(24, 48),
    depth_shrink=0.75,
    variety_choices=(1, 2, 3),
    variety_skew=1.4,
    branching=1.0,
)

_SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (GO_LIKE, GCC_LIKE, LI_LIKE, IJPEG_LIKE, PERL_LIKE)
}

#: Canonical ordering used by every experiment table.
WORKLOAD_NAMES: Tuple[str, ...] = (
    "go-like",
    "gcc-like",
    "li-like",
    "ijpeg-like",
    "perl-like",
)


def spec_for(name: str, scale: float = 1.0) -> WorkloadSpec:
    """Look up a bundled spec, optionally rescaled."""
    try:
        spec = _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        ) from None
    if scale != 1.0:
        spec = replace(spec, scale=scale)
    return spec


def workload(name: str, scale: float = 1.0) -> Tuple[Program, WorkloadSpec]:
    """Build one bundled workload program."""
    spec = spec_for(name, scale)
    return generate_program(spec), spec
