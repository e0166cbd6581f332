// Explicit-instantiation lists for the solver kernels.
//
// These enumerate the legal (format × preconditioner) combinations of
// Table 3: Jacobi and the identity work with every format; BatchIlu and
// BatchIsai require BatchCsr. Each solver × value-type pair instantiates in
// its own translation unit to keep any single compile job small.
#pragma once

#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "matrix/batch_ell.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/identity.hpp"
#include "precond/ilu0.hpp"
#include "precond/isai.hpp"
#include "precond/jacobi.hpp"

// Applies macro(T, S, MatBatch, Precond) to every legal combination.
// T is the compute type, S the storage type of the matrix/preconditioner
// payloads (S == T for native storage, float for fp32 storage on double).
// The instantiate/extern macros take the preconditioner variadically:
// `precond::jacobi<T, S>` contains a comma, and __VA_ARGS__ is the only
// preprocessor-clean way to pass it through a macro argument.
#define BATCHLIN_FOR_EACH_COMBO(macro, T, S)                                \
    macro(T, S, ::batchlin::mat::batch_csr<T>,                              \
          ::batchlin::precond::identity<T, S>)                              \
    macro(T, S, ::batchlin::mat::batch_csr<T>,                              \
          ::batchlin::precond::jacobi<T, S>)                                \
    macro(T, S, ::batchlin::mat::batch_csr<T>,                              \
          ::batchlin::precond::ilu0<T, S>)                                  \
    macro(T, S, ::batchlin::mat::batch_csr<T>,                              \
          ::batchlin::precond::isai<T, S>)                                  \
    macro(T, S, ::batchlin::mat::batch_csr<T>,                              \
          ::batchlin::precond::block_jacobi<T, S>)                          \
    macro(T, S, ::batchlin::mat::batch_ell<T>,                              \
          ::batchlin::precond::identity<T, S>)                              \
    macro(T, S, ::batchlin::mat::batch_ell<T>,                              \
          ::batchlin::precond::jacobi<T, S>)                                \
    macro(T, S, ::batchlin::mat::batch_dense<T>,                            \
          ::batchlin::precond::identity<T, S>)                              \
    macro(T, S, ::batchlin::mat::batch_dense<T>,                            \
          ::batchlin::precond::jacobi<T, S>)

#define BATCHLIN_INSTANTIATE_CG_BOUND(T, S, MatBatch, ...)                 \
    template void run_cg_bound<T, MatBatch, __VA_ARGS__, S>(                       \
        xpu::queue&, const MatBatch&, const __VA_ARGS__&,                       \
        const mat::batch_dense<T>&, mat::batch_dense<T>&,                   \
        const stop::criterion&, const bound_plan&, const kernel_config&,    \
        spill_view<T>, log::batch_log&, xpu::batch_range);

#define BATCHLIN_INSTANTIATE_BICGSTAB_BOUND(T, S, MatBatch, ...)           \
    template void run_bicgstab_bound<T, MatBatch, __VA_ARGS__, S>(                 \
        xpu::queue&, const MatBatch&, const __VA_ARGS__&,                       \
        const mat::batch_dense<T>&, mat::batch_dense<T>&,                   \
        const stop::criterion&, const bound_plan&, const kernel_config&,    \
        spill_view<T>, log::batch_log&, xpu::batch_range);

#define BATCHLIN_INSTANTIATE_RICHARDSON_BOUND(T, S, MatBatch, ...)        \
    template void run_richardson_bound<T, MatBatch, __VA_ARGS__, S>(              \
        xpu::queue&, const MatBatch&, const __VA_ARGS__&,                      \
        const mat::batch_dense<T>&, mat::batch_dense<T>&,                  \
        const stop::criterion&, const bound_plan&, const kernel_config&,   \
        spill_view<T>, T, log::batch_log&, xpu::batch_range);

#define BATCHLIN_INSTANTIATE_GMRES_BOUND(T, S, MatBatch, ...)              \
    template void run_gmres_bound<T, MatBatch, __VA_ARGS__, S>(                    \
        xpu::queue&, const MatBatch&, const __VA_ARGS__&,                       \
        const mat::batch_dense<T>&, mat::batch_dense<T>&,                   \
        const stop::criterion&, const bound_plan&, const kernel_config&,    \
        spill_view<T>, index_type, log::batch_log&, xpu::batch_range);
