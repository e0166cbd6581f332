// Storage-precision policy: decouple how matrix values are *stored* from
// the precision the solvers *compute* in.
//
// Every solver in this codebase is bandwidth-bound (paper §roofline,
// bench_fig8_roofline), so the bytes streamed for the matrix values and
// preconditioner payloads — not flops — set the solves/sec ceiling. The
// Ginkgo Intel-port line of work shows that storing those read-only
// payloads in FP32 while keeping FP64 arithmetic roughly halves the
// dominant traffic term. The lost bits are recovered by an outer
// iterative-refinement loop (solver::solve_refined) that measures the true
// FP64 residual against the native-precision matrix.
#pragma once

#include <string>

#include "util/math.hpp"

namespace batchlin::mat {

/// How a batched matrix holds its values (and, downstream, how the
/// preconditioner payloads derived from it are held).
enum class storage_precision {
    /// Values stored in the compute type T (the historical behaviour).
    native,
    /// Values stored as float regardless of T; kernels widen on read.
    fp32,
};

std::string to_string(storage_precision mode);

/// Parses "native" / "fp32"; throws on anything else.
storage_precision parse_storage_precision(const std::string& name);

/// fp32 storage is meaningless when the compute type already is 4 bytes
/// wide; collapse it to native so `storage_mode() == fp32` reliably means
/// "the values arrays really are float and really are half-width".
template <typename T>
constexpr storage_precision effective_storage(storage_precision mode)
{
    if (sizeof(T) <= sizeof(float)) {
        return storage_precision::native;
    }
    return mode;
}

}  // namespace batchlin::mat
