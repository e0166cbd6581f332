#include "solver/assemble.hpp"

#include <algorithm>
#include <bit>
#include <variant>

#include "solver/record.hpp"
#include "solver/refined.hpp"
#include "util/error.hpp"

namespace batchlin::solver {

namespace {

template <typename T>
bool same_pattern(const mat::batch_csr<T>& lhs, const mat::batch_csr<T>& rhs)
{
    return lhs.rows() == rhs.rows() && lhs.cols() == rhs.cols() &&
           lhs.nnz() == rhs.nnz() && lhs.row_ptrs() == rhs.row_ptrs() &&
           lhs.col_idxs() == rhs.col_idxs();
}

template <typename T>
bool same_pattern(const mat::batch_ell<T>& lhs, const mat::batch_ell<T>& rhs)
{
    return lhs.rows() == rhs.rows() && lhs.cols() == rhs.cols() &&
           lhs.ell_width() == rhs.ell_width() &&
           lhs.col_idxs() == rhs.col_idxs();
}

template <typename T>
bool same_pattern(const mat::batch_dense<T>& lhs,
                  const mat::batch_dense<T>& rhs)
{
    return lhs.rows() == rhs.rows() && lhs.cols() == rhs.cols();
}

/// Word-at-a-time FNV-1a variant: one xor-multiply per 64-bit value plus
/// a final avalanche, not one per byte — a batcher hashes the full
/// sparsity pattern of every request, so this sits on the serving hot path.
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    h *= 1099511628211ull;
    h ^= h >> 32;
    return h;
}

std::uint64_t hash_span(std::uint64_t h, const std::vector<index_type>& values)
{
    for (const index_type v : values) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    }
    h ^= h >> 32;
    return h;
}

}  // namespace

namespace detail {

template <typename T>
index_type validate_assembly(const std::vector<assembly_part<T>>& parts)
{
    BATCHLIN_ENSURE_MSG(!parts.empty(), "nothing to solve");
    index_type total_items = 0;
    const index_type rows = rows_of(*parts.front().a);
    for (const assembly_part<T>& part : parts) {
        BATCHLIN_ENSURE_MSG(part.a != nullptr && part.b != nullptr &&
                                part.x != nullptr,
                            "assembly part missing an operand");
        BATCHLIN_ENSURE_MSG(can_coalesce(*parts.front().a, *part.a),
                            "assembly parts do not share format, "
                            "dimensions, and sparsity pattern");
        const index_type items = part.items();
        BATCHLIN_ENSURE_DIMS(part.b->num_batch_items() == items &&
                                 part.x->num_batch_items() == items,
                             "batch sizes of A, b, x must match");
        BATCHLIN_ENSURE_DIMS(part.b->rows() == rows &&
                                 part.x->rows() == rows &&
                                 part.b->cols() == 1 && part.x->cols() == 1,
                             "vector shapes must match the matrix order");
        total_items += items;
    }
    return total_items;
}

}  // namespace detail

template <typename T>
bool same_shape(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs)
{
    if (lhs.index() != rhs.index()) {
        return false;
    }
    return std::visit(
        [&](const auto& l) {
            using MatBatch = std::decay_t<decltype(l)>;
            return same_pattern(l, std::get<MatBatch>(rhs));
        },
        lhs);
}

template <typename T>
bool can_coalesce(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs)
{
    // Mixing storage modes in one fused launch would force the gather to
    // re-convert values per solve; refuse instead.
    return storage_of(lhs) == storage_of(rhs) && same_shape(lhs, rhs);
}

log::batch_log split_log(const log::batch_log& combined, index_type offset,
                         index_type items)
{
    log::batch_log part;
    split_log_into(combined, offset, items, part);
    return part;
}

void split_log_into(const log::batch_log& combined, index_type offset,
                    index_type items, log::batch_log& out)
{
    BATCHLIN_ENSURE_DIMS(offset >= 0 && items >= 0 &&
                             offset + items <= combined.num_systems(),
                         "log slice out of range");
    if (out.num_systems() != items) {
        out = log::batch_log(items);
    }
    for (index_type i = 0; i < items; ++i) {
        out.record(i, combined.iterations(offset + i),
                   combined.residual_norm(offset + i),
                   combined.status(offset + i));
    }
}

template <typename T>
std::uint64_t coalesce_key(const batch_matrix<T>& a,
                           const solve_options& opts)
{
    std::uint64_t h = 14695981039346656037ull;
    h = hash_mix(h, sizeof(T));
    h = hash_mix(h, static_cast<std::uint64_t>(a.index()));
    std::visit(
        [&](const auto& m) {
            using MatBatch = std::decay_t<decltype(m)>;
            h = hash_mix(h, static_cast<std::uint64_t>(m.rows()));
            h = hash_mix(h, static_cast<std::uint64_t>(m.cols()));
            // Matrices of different storage modes must never share a
            // fused launch: the gather copies one value array kind.
            h = hash_mix(h, static_cast<std::uint64_t>(m.storage_mode()));
            if constexpr (std::is_same_v<MatBatch, mat::batch_csr<T>>) {
                h = hash_span(h, m.row_ptrs());
                h = hash_span(h, m.col_idxs());
            } else if constexpr (std::is_same_v<MatBatch,
                                                mat::batch_ell<T>>) {
                h = hash_mix(h, static_cast<std::uint64_t>(m.ell_width()));
                h = hash_span(h, m.col_idxs());
            }
        },
        a);
    h = hash_mix(h, static_cast<std::uint64_t>(opts.solver));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.preconditioner));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.criterion.type));
    h = hash_mix(h, std::bit_cast<std::uint64_t>(opts.criterion.tolerance));
    h = hash_mix(h,
                 static_cast<std::uint64_t>(opts.criterion.max_iterations));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.gmres_restart));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.block_jacobi_size));
    h = hash_mix(h,
                 std::bit_cast<std::uint64_t>(opts.richardson_relaxation));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.slm));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.sub_group_size));
    h = hash_mix(h, opts.reduction
                        ? static_cast<std::uint64_t>(*opts.reduction) + 1
                        : 0);
    h = hash_mix(h, static_cast<std::uint64_t>(opts.trsv_triangle));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.storage));
    h = hash_mix(h, static_cast<std::uint64_t>(opts.refine_sweeps));
    return h;
}

template <typename T>
coalesced_result solve_coalesced(xpu::queue& q,
                                 const std::vector<assembly_part<T>>& parts,
                                 const solve_options& opts,
                                 recording_cache<T>* cache,
                                 const retry_policy& policy)
{
    BATCHLIN_ENSURE_MSG(!opts.record_history,
                        "per-iteration history is not supported for "
                        "coalesced solves");
    // One attempt at `p` as a fused batch. Refinement and recording serve
    // the iterative solvers; trsv, a direct triangular solve, always
    // launches eagerly. A single part already is a batch: it is solved in
    // place, with no gather or scatter.
    const bool iterative = opts.solver != solver_type::trsv;
    const bool refine = iterative && opts.refine_sweeps > 0;
    const auto solve_fused = [&](const std::vector<assembly_part<T>>& p) {
        if (cache != nullptr && iterative && !refine) {
            return cache->solve(q, p, opts);
        }
        const index_type items = detail::validate_assembly(p);
        const bool alone = p.size() == 1;
        detail::assembly<T> ops;
        if (!alone) {
            ops = detail::gather(p, items);
        }
        const batch_matrix<T>& a = alone ? *p.front().a : ops.a;
        const mat::batch_dense<T>& b = alone ? *p.front().b : ops.b;
        mat::batch_dense<T>& x = alone ? *p.front().x : ops.x;
        solve_result res;
        if (refine) {
            refined_result rr =
                solve_refined(q, a, b, x, opts, {opts.refine_sweeps});
            res.log = std::move(rr.log);
            res.stats = rr.stats;
            res.wall_seconds = rr.wall_seconds;
            res.refined = refine_outcome{rr.sweeps, rr.fell_back};
        } else {
            res = solve(q, a, b, x, opts);
        }
        if (!alone) {
            detail::scatter(ops.x, p);
        }
        return res;
    };

    coalesced_result out;
    out.parts.resize(parts.size());
    // Solves `group`, the parts from `first` on, with retries and records
    // each part's outcome (`attempts` so far included). False when the
    // retries are exhausted.
    const auto attempt = [&](const std::vector<assembly_part<T>>& group,
                             std::size_t first, index_type attempts) {
        std::optional<solve_result> res = detail::with_retries(
            policy, attempts, out.tally, [&] { return solve_fused(group); });
        index_type offset = 0;
        for (std::size_t k = 0; k < group.size(); ++k) {
            part_outcome& part = out.parts[first + k];
            part.attempts = attempts;
            if (res) {
                part.solve = static_cast<index_type>(out.solves.size());
                part.offset = offset;
                offset += group[k].items();
            } else {
                part.fault = out.tally.last_fault;
            }
        }
        if (res) {
            out.solves.push_back(std::move(*res));
        }
        return res.has_value();
    };
    if (!attempt(parts, 0, 0) && policy.degrade) {
        out.degraded = true;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            attempt({parts[i]}, i, out.parts[i].attempts);
        }
    }
    return out;
}

#define BATCHLIN_INSTANTIATE_ASSEMBLE(T)                                    \
    template bool same_shape<T>(const batch_matrix<T>&,                     \
                                const batch_matrix<T>&);                    \
    template bool can_coalesce<T>(const batch_matrix<T>&,                   \
                                  const batch_matrix<T>&);                  \
    template coalesced_result solve_coalesced<T>(                           \
        xpu::queue&, const std::vector<assembly_part<T>>&,                  \
        const solve_options&, recording_cache<T>*, const retry_policy&);    \
    template std::uint64_t coalesce_key<T>(const batch_matrix<T>&,          \
                                           const solve_options&);           \
    template index_type detail::validate_assembly<T>(                       \
        const std::vector<assembly_part<T>>&)

BATCHLIN_INSTANTIATE_ASSEMBLE(float);
BATCHLIN_INSTANTIATE_ASSEMBLE(double);

}  // namespace batchlin::solver
