"""Benchmark harness: evaluation workloads emitting CSV."""

# Only the names perfbench/inputs.py imports from the package; everything
# else is imported from its submodule.
from .ecg import encode_batch, generate_stream
from .runners import make_key_id

__all__ = ["encode_batch", "generate_stream", "make_key_id"]
