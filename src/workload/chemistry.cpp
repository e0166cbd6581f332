#include "workload/chemistry.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/replicate.hpp"

namespace batchlin::work {

std::vector<mechanism> pele_mechanisms()
{
    // Table 4, row for row.
    return {
        {"drm19", 67, 22, 438},
        {"gri12", 73, 33, 978},
        {"gri30", 90, 54, 2560},
        {"dodecane_lu", 78, 54, 2332},
        {"isooctane", 72, 144, 6135},
    };
}

mechanism mechanism_by_name(const std::string& name)
{
    for (const mechanism& m : pele_mechanisms()) {
        if (m.name == name) {
            return m;
        }
    }
    BATCHLIN_ENSURE_MSG(false, "unknown mechanism: " + name);
    return {};
}

namespace {

/// Builds the shared sparsity pattern with exactly `mech.nnz` entries:
/// full diagonal, dense last row and last column (temperature coupling),
/// and deterministic pseudo-random species-coupling fill.
void build_pattern(const mechanism& mech, std::vector<index_type>& row_ptrs,
                   std::vector<index_type>& col_idxs, rng& gen)
{
    const index_type n = mech.rows;
    const index_type base = n + 2 * (n - 1);  // diag + last row + last col
    BATCHLIN_ENSURE_MSG(mech.nnz >= base,
                        "mechanism nnz too small for the base pattern");
    index_type remaining = mech.nnz - base;
    const index_type interior = n - 1;  // rows/cols 0..n-2
    BATCHLIN_ENSURE_MSG(
        remaining <= interior * (interior - 1),
        "mechanism nnz exceeds the available pattern positions");

    // Distribute the remaining couplings over the interior rows as evenly
    // as the per-row capacity allows (chemistry Jacobians are dense-ish and
    // fairly balanced, which is also why BatchEll suits them, §3.1). One
    // flag per position; `place` reports whether the flag was clear.
    std::vector<unsigned char> pattern(static_cast<std::size_t>(n) * n, 0);
    const auto place = [&](index_type i, index_type j) {
        unsigned char& flag = pattern[static_cast<std::size_t>(i) * n + j];
        const bool was_clear = flag == 0;
        flag = 1;
        return was_clear;
    };
    for (index_type i = 0; i < n; ++i) {
        place(i, i);        // diagonal
        place(i, n - 1);    // last column
        place(n - 1, i);    // last row
    }
    // An interior row holds its diagonal and the last column so far.
    std::vector<index_type> capacity(interior, interior - 1);
    index_type cursor = 0;
    while (remaining > 0) {
        const index_type i = cursor % interior;
        ++cursor;
        if (capacity[i] <= 0) {
            continue;
        }
        // Rejection-sample a free interior position; at high fill ratios
        // fall back to a deterministic scan from a random offset so the
        // construction always terminates.
        bool placed = false;
        for (int attempt = 0; attempt < 16 && !placed; ++attempt) {
            const index_type j = gen.uniform_int(0, interior - 1);
            placed = place(i, j);
        }
        if (!placed) {
            const index_type start = gen.uniform_int(0, interior - 1);
            for (index_type step = 0; step < interior && !placed; ++step) {
                const index_type j = (start + step) % interior;
                placed = place(i, j);
            }
        }
        if (placed) {
            --capacity[i];
            --remaining;
        }
    }

    row_ptrs.assign(n + 1, 0);
    col_idxs.clear();
    col_idxs.reserve(mech.nnz);
    for (index_type i = 0; i < n; ++i) {
        for (index_type j = 0; j < n; ++j) {
            if (pattern[static_cast<std::size_t>(i) * n + j] != 0) {
                col_idxs.push_back(j);
            }
        }
        row_ptrs[i + 1] = static_cast<index_type>(col_idxs.size());
    }
}

/// The first `count` unique systems of a mechanism. They are drawn in order
/// from one stream after the pattern, so the first k are the same whatever
/// the count.
template <typename T>
mat::batch_csr<T> generate_uniques(const mechanism& mech, index_type count,
                                   std::uint64_t seed)
{
    rng gen(seed);
    std::vector<index_type> row_ptrs;
    std::vector<index_type> col_idxs;
    build_pattern(mech, row_ptrs, col_idxs, gen);
    mat::batch_csr<T> a(count, mech.rows, mech.rows,
                        std::move(row_ptrs), std::move(col_idxs));
    BATCHLIN_ENSURE_MSG(a.nnz() == mech.nnz,
                        "generated pattern does not match Table 4 nnz");

    // Values: A = I - gamma*J with J the species-coupling Jacobian. Each
    // unique matrix gets its own gamma (time-step dependent) and J draw;
    // the diagonal is lifted to strict dominance, matching the stiff-BDF
    // systems' character (non-symmetric, well conditioned after Jacobi).
    const auto& rp = a.row_ptrs();
    const auto& ci = a.col_idxs();
    for (index_type u = 0; u < count; ++u) {
        T* vals = a.item_values(u);
        const double gamma = gen.uniform(0.05, 0.3);
        for (index_type i = 0; i < mech.rows; ++i) {
            double off_sum = 0.0;
            index_type diag_k = -1;
            for (index_type k = rp[i]; k < rp[i + 1]; ++k) {
                if (ci[k] == i) {
                    diag_k = k;
                    continue;
                }
                const double j_entry = gen.normal(0.0, 1.0);
                vals[k] = static_cast<T>(-gamma * j_entry);
                off_sum += std::abs(static_cast<double>(vals[k]));
            }
            // diag = 1 - gamma*J_ii lifted above the off-diagonal mass.
            const double dominance = gen.uniform(1.1, 1.6);
            vals[diag_k] = static_cast<T>(1.0 + dominance * off_sum);
        }
    }
    return a;
}

}  // namespace

template <typename T>
mat::batch_csr<T> generate_mechanism(const mechanism& mech,
                                     std::uint64_t seed)
{
    return generate_uniques<T>(mech, mech.num_unique, seed);
}

template <typename T>
mat::batch_csr<T> generate_mechanism_batch(const mechanism& mech,
                                           index_type batch_size,
                                           std::uint64_t seed)
{
    // Item b replicates unique b % count: a batch of at most num_unique
    // cells reads only its first batch_size uniques, so only those are
    // drawn.
    const index_type count =
        std::max<index_type>(1, std::min(mech.num_unique, batch_size));
    const mat::batch_csr<T> unique = generate_uniques<T>(mech, count, seed);
    return replicate(unique, batch_size, 1e-3, seed ^ 0x9e3779b9u);
}

template <typename T>
mat::batch_dense<T> mechanism_rhs(index_type num_items, index_type rows,
                                  std::uint64_t seed)
{
    mat::batch_dense<T> b(num_items, rows, 1);
    rng gen(seed);
    for (T& v : b.values()) {
        v = static_cast<T>(gen.uniform(-1.0, 1.0));
    }
    return b;
}

#define BATCHLIN_INSTANTIATE_CHEMISTRY(T)                                  \
    template mat::batch_csr<T> generate_mechanism<T>(const mechanism&,     \
                                                     std::uint64_t);       \
    template mat::batch_csr<T> generate_mechanism_batch<T>(                \
        const mechanism&, index_type, std::uint64_t);                      \
    template mat::batch_dense<T> mechanism_rhs<T>(index_type, index_type,  \
                                                  std::uint64_t)

BATCHLIN_INSTANTIATE_CHEMISTRY(float);
BATCHLIN_INSTANTIATE_CHEMISTRY(double);

}  // namespace batchlin::work
