"""Execution substrate: kernel compiler, plan/bind runtime, execution tiers."""

from . import faults
from ..errors import (
    CheckpointError,
    EnsembleBindError,
    NativeBuildError,
    NumericalDivergenceError,
    ReproError,
    SchedulerError,
    ServeError,
    ShardError,
    ValidationError,
)
from .bindings import Bindings
from .bound import BoundPlan
from .checkpoint import (
    CheckpointedAdjointPlan,
    ShardedCheckpointedAdjoint,
    SnapshotPool,
)
from .cache import (
    KernelCache,
    clear_kernel_cache,
    get_kernel_cache,
    kernel_key,
    native_cache_dir,
)
from .distributed import (
    RankSlab,
    ShardedPlan,
    decompose,
)
from .ensemble import EnsemblePlan, batch_safe_statement, stack_arrays
from .native import (
    NativeLibrary,
    native_available,
    native_thread_count,
    native_toolchain,
)
from .compiler import (
    CompiledKernel,
    KernelError,
    RegionKernel,
    assert_disjoint_writes,
    compile_nests,
)
from .interpreter import interpret_nests
from .plan import ExecutionConfig, ExecutionPlan, ShardSpec
from .server import KernelServer, seeded_state, state_shapes
from .client import KernelClient, ServeResult
from .scheduler import WorkerPool, split_box

__all__ = [
    "Bindings",
    "BoundPlan",
    "CheckpointError",
    "CheckpointedAdjointPlan",
    "EnsembleBindError",
    "NativeBuildError",
    "NumericalDivergenceError",
    "ReproError",
    "SchedulerError",
    "ServeError",
    "ShardError",
    "ShardSpec",
    "ShardedCheckpointedAdjoint",
    "ShardedPlan",
    "ValidationError",
    "faults",
    "CompiledKernel",
    "EnsemblePlan",
    "ExecutionConfig",
    "ExecutionPlan",
    "KernelCache",
    "KernelClient",
    "KernelServer",
    "ServeResult",
    "WorkerPool",
    "batch_safe_statement",
    "stack_arrays",
    "RankSlab",
    "decompose",
    "KernelError",
    "NativeLibrary",
    "SnapshotPool",
    "RegionKernel",
    "assert_disjoint_writes",
    "clear_kernel_cache",
    "compile_nests",
    "get_kernel_cache",
    "interpret_nests",
    "kernel_key",
    "native_available",
    "native_cache_dir",
    "native_thread_count",
    "native_toolchain",
    "seeded_state",
    "state_shapes",
    "split_box",
]
