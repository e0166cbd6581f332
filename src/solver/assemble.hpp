// Coalesced-batch assembly: the solver-side half of the serve:: dynamic
// batcher.
//
// The paper's throughput argument (§3.4) is that many small systems fused
// into one kernel launch amortize the per-launch overhead. A stream of
// independent solve requests can only exploit that if someone gathers the
// requests into one batch before it hits the device: `solve_coalesced`
// takes N compatible requests (same pattern, same options), assembles one
// combined batch, runs one fused solve (recovering device faults), and
// scatters each request's solution and convergence record back. As every
// system is solved by its own work-group with a launch configuration that
// depends only on the system shape, the per-request results are
// bit-identical to solo `solve` calls (tests/test_serve.cpp asserts this).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "solver/dispatch.hpp"
#include "solver/options.hpp"
#include "util/error.hpp"
#include "xpu/fault.hpp"

namespace batchlin::solver {

/// One request's slice of a coalesced solve. `x` carries the initial
/// guess on entry and the solution on return, exactly like `solve`.
template <typename T>
struct assembly_part {
    const batch_matrix<T>* a = nullptr;
    const mat::batch_dense<T>* b = nullptr;
    mat::batch_dense<T>* x = nullptr;

    index_type items() const { return items_of(*a); }
};

/// Whether two batches share format, dimensions, and sparsity pattern
/// (BatchCsr row pointers and column indexes, BatchEll column indexes).
/// Batch sizes and storage precision may differ.
template <typename T>
bool same_shape(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs);

/// Whether two batches may share one fused launch: `same_shape` plus the
/// same storage precision (a fused launch reads all value blocks at one
/// storage width). Batch sizes may differ.
template <typename T>
bool can_coalesce(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs);

template <typename T>
class recording_cache;

/// How a solve recovers from `xpu::device_error` launches: `retries`
/// more attempts after a faulted one (injected faults are keyed by the
/// queue's launch counter, so a retry is a fresh launch), with a backoff
/// that doubles per retry up to `max_backoff`. With `degrade`, a fused
/// solve that exhausts its retries is followed by solo solves of each part,
/// retried the same way, so only the parts that cannot complete fail.
struct retry_policy {
    index_type retries = 0;
    std::chrono::microseconds backoff{0};
    std::chrono::microseconds max_backoff{0};
    bool degrade = false;
};

/// Faulted attempts, those of them retried, and the last fault's text.
struct fault_tally {
    index_type faults = 0;
    index_type retries = 0;
    std::string last_fault;
};

/// What `solve_coalesced` did for one part: its records are entries
/// [offset, offset + items) of `coalesced_result::solves[solve]`'s log, or
/// (`solve` < 0) every attempt faulted, the last with `fault`. `attempts`
/// counts the fused attempts plus, after degradation, its own.
struct part_outcome {
    index_type solve = -1;
    index_type offset = 0;
    index_type attempts = 0;
    std::string fault;

    bool exhausted() const { return solve < 0; }
};

/// Outcome of `solve_coalesced`: the completed solves (the fused one, or
/// one per part solved alone after degradation) and one outcome per part.
struct coalesced_result {
    std::vector<solve_result> solves;
    std::vector<part_outcome> parts;
    fault_tally tally;
    bool degraded = false;
};

/// Solves all parts as one fused batch on `q` and scatters each part's
/// solution back into its `x`. Part `i`'s systems occupy batch entries
/// [offset_i, offset_i + items_i) of the fused solve's result, with offsets
/// in part order. Device faults are recovered here, and only here, under
/// `policy`; an exhausted part is reported, not thrown. How the batch
/// reaches the device is decided here too:
///   - `opts.refine_sweeps > 0` (any solver but trsv): the gathered batch
///     runs the mixed-precision refinement driver (`solve_refined`, at most
///     `refine_sweeps` correction sweeps); `refined` reports what it did.
///     Its launch count depends on convergence, so it is never recorded.
///   - otherwise, given a `cache` and a solver other than trsv (which
///     cannot be recorded): rebind-and-replay of a cached recording, or
///     record-then-replay on a miss (see `recording_cache`).
///   - everything else: one eager fused launch. A single part is solved in
///     place, with no gather or scatter.
/// Every path is bit-identical to solo solves of the parts and fills
/// `stats`.
template <typename T>
coalesced_result solve_coalesced(xpu::queue& q,
                                 const std::vector<assembly_part<T>>& parts,
                                 const solve_options& opts,
                                 recording_cache<T>* cache = nullptr,
                                 const retry_policy& policy = {});

/// Grouping key of a coalescing batcher: precision, format, dimensions,
/// storage mode, sparsity pattern, and the full option set. Batches that
/// may share a fused launch hash equally; an exact `can_coalesce` plus
/// options comparison must back the hash, so a collision degrades
/// batching, never correctness.
template <typename T>
std::uint64_t coalesce_key(const batch_matrix<T>& a,
                           const solve_options& opts);

/// Extracts the per-system convergence records of one part from the
/// combined log: entries [offset, offset + items) re-indexed from zero.
log::batch_log split_log(const log::batch_log& combined, index_type offset,
                         index_type items);

/// In-place variant: writes the slice into `out`, reusing its storage
/// when it is already sized for `items` systems. The serving hot path
/// recycles log storage through the request/reply round trip, and the
/// allocating `split_log` would put three cross-thread malloc/free pairs
/// per request back on that path.
void split_log_into(const log::batch_log& combined, index_type offset,
                    index_type items, log::batch_log& out);

namespace detail {

/// The one device-fault recovery loop: calls `attempt()` until it returns
/// without throwing `xpu::device_error`, at most `1 + policy.retries`
/// times, backing off in between; nullopt once the retries are exhausted.
/// Other exceptions propagate.
template <typename Attempt>
auto with_retries(const retry_policy& policy, index_type& attempts,
                  fault_tally& tally, Attempt&& attempt)
    -> std::optional<decltype(attempt())>
{
    std::chrono::microseconds backoff = policy.backoff;
    for (index_type retry = 0;; ++retry) {
        ++attempts;
        try {
            return attempt();
        } catch (const xpu::device_error& ex) {
            ++tally.faults;
            tally.last_fault = ex.what();
            if (retry >= policy.retries) {
                return std::nullopt;
            }
            ++tally.retries;
            if (backoff.count() > 0) {
                std::this_thread::sleep_for(backoff);
                backoff = std::min(backoff * 2, policy.max_backoff);
            }
        }
    }
}

/// Validates an assembly: every part present, shapes consistent, patterns
/// coalescible with the leader. Returns the combined batch-item count.
/// Shared by `solve_coalesced` and the graph-record path.
template <typename T>
index_type validate_assembly(const std::vector<assembly_part<T>>& parts);

/// A zero-valued batch of `items` systems with the format, shared
/// pattern, and storage mode of `src`.
template <typename T>
mat::batch_csr<T> empty_like(const mat::batch_csr<T>& src, index_type items)
{
    mat::batch_csr<T> out(items, src.rows(), src.cols(), src.row_ptrs(),
                          src.col_idxs());
    out.set_storage_precision(src.storage_mode());
    return out;
}
template <typename T>
mat::batch_ell<T> empty_like(const mat::batch_ell<T>& src, index_type items)
{
    mat::batch_ell<T> out(items, src.rows(), src.cols(), src.ell_width());
    out.col_idxs() = src.col_idxs();
    out.set_storage_precision(src.storage_mode());
    return out;
}
template <typename T>
mat::batch_dense<T> empty_like(const mat::batch_dense<T>& src,
                               index_type items)
{
    mat::batch_dense<T> out(items, src.rows(), src.cols());
    out.set_storage_precision(src.storage_mode());
    return out;
}

/// Gathers the listed items of a batch into a fresh one with the same
/// format, pattern, and storage mode.
template <typename M>
M gather_items(const M& src, const std::vector<index_type>& items)
{
    M out = empty_like(src, static_cast<index_type>(items.size()));
    for (index_type j = 0; j < out.num_batch_items(); ++j) {
        mat::copy_items(src, items[static_cast<std::size_t>(j)], out, j);
    }
    return out;
}

template <typename T>
batch_matrix<T> gather_items(const batch_matrix<T>& a,
                             const std::vector<index_type>& items)
{
    return std::visit(
        [&](const auto& m) -> batch_matrix<T> {
            return gather_items(m, items);
        },
        a);
}

/// One coalesced batch's operands, parts laid out batch-major in order.
template <typename T>
struct assembly {
    batch_matrix<T> a;
    mat::batch_dense<T> b;
    mat::batch_dense<T> x;
};

/// Copies every part's matrix values, right-hand side, and initial guess
/// into `into`, whose matrix must share the parts' format and pattern (its
/// values are written at its own storage width).
template <typename T>
void gather_into(const std::vector<assembly_part<T>>& parts,
                 assembly<T>& into)
{
    index_type offset = 0;
    for (const assembly_part<T>& part : parts) {
        const index_type n = part.items();
        std::visit(
            [&](auto& combined) {
                using MatBatch = std::decay_t<decltype(combined)>;
                mat::copy_items(std::get<MatBatch>(*part.a), 0, combined,
                                offset, n);
            },
            into.a);
        mat::copy_items(*part.b, 0, into.b, offset, n);
        mat::copy_items(*part.x, 0, into.x, offset, n);
        offset += n;
    }
}

/// Allocates the combined operands (the leader's pattern and storage
/// mode, `total_items` systems) and gathers every part into them.
template <typename T>
assembly<T> gather(const std::vector<assembly_part<T>>& parts,
                   index_type total_items)
{
    const batch_matrix<T>& leader = *parts.front().a;
    const index_type rows = rows_of(leader);
    assembly<T> out{
        std::visit(
            [&](const auto& m) -> batch_matrix<T> {
                return empty_like(m, total_items);
            },
            leader),
        mat::batch_dense<T>(total_items, rows, 1),
        mat::batch_dense<T>(total_items, rows, 1)};
    gather_into(parts, out);
    return out;
}

/// Copies the combined solution back into each part's x.
template <typename T>
void scatter(const mat::batch_dense<T>& x,
             const std::vector<assembly_part<T>>& parts)
{
    index_type offset = 0;
    for (const assembly_part<T>& part : parts) {
        mat::copy_items(x, offset, *part.x, 0, part.items());
        offset += part.items();
    }
}

}  // namespace detail

}  // namespace batchlin::solver
