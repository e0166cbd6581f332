// Synthetic PeleLM+SUNDIALS chemistry workload (paper §4.1, Table 4).
//
// The paper benchmarks matrices extracted from reactive-flow simulations:
// BDF/Newton iteration Jacobian systems of the form A = I - gamma*J, where
// J couples the chemical species of a mechanism (all cells share the
// sparsity pattern, each cell has its own values). We do not have the
// proprietary extraction, so this generator reproduces the documented
// structure: Table 4's exact sizes and non-zero counts, a shared pattern
// with full diagonal plus a dense last row/column (the temperature coupling
// typical of these Jacobians), non-symmetric diagonally dominant values,
// and `num_unique` distinct matrices replicated over the mesh cells
// (exactly what the paper does: "we extract the matrices ... for a few
// cells and replicate").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"

namespace batchlin::work {

/// One Table 4 row.
struct mechanism {
    std::string name;
    index_type num_unique = 0;
    index_type rows = 0;
    index_type nnz = 0;
};

/// The five PeleLM mechanisms exactly as listed in Table 4.
std::vector<mechanism> pele_mechanisms();

/// Lookup by name; throws on unknown mechanism.
mechanism mechanism_by_name(const std::string& name);

/// Generates the `num_unique` distinct systems of a mechanism (batch size
/// == num_unique); replicate() expands them to a mesh-sized batch.
template <typename T>
mat::batch_csr<T> generate_mechanism(const mechanism& mech,
                                     std::uint64_t seed = 1234);

/// Full workload: unique systems replicated cyclically (with a small value
/// perturbation per copy) to `batch_size` cells, as in §4.1. Only the
/// uniques the batch reads are drawn; they equal the first ones of
/// generate_mechanism at the same seed.
template <typename T>
mat::batch_csr<T> generate_mechanism_batch(const mechanism& mech,
                                           index_type batch_size,
                                           std::uint64_t seed = 1234);

/// Right-hand sides mimicking the Newton residuals: random smooth entries.
template <typename T>
mat::batch_dense<T> mechanism_rhs(index_type num_items, index_type rows,
                                  std::uint64_t seed = 77);

}  // namespace batchlin::work
