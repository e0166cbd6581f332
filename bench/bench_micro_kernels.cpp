// google-benchmark microbenchmarks of the simulator's real wall-clock:
// device BLAS phases, per-format SpMV, and full fused solves.
//
// Unlike the figure benches (which model device time from counters), these
// measure the host execution of the kernels themselves — the numbers CI
// can track for regressions of the simulator and solver code paths.
#include <benchmark/benchmark.h>

#include "batchlin/batchlin.hpp"
#include "matrix/conversions.hpp"

using namespace batchlin;

namespace {

void bm_spmv_csr(benchmark::State& state)
{
    const index_type rows = static_cast<index_type>(state.range(0));
    const index_type items = 256;
    const auto a = work::stencil_3pt<double>(items, rows, 42);
    std::vector<double> x(rows, 1.0);
    std::vector<double> y(static_cast<std::size_t>(rows) * items);
    xpu::queue q(xpu::make_sycl_policy());
    // Counted once per launch, as the solver launches do.
    const double slots = blas::spmv_slots(a, 16);
    for (auto _ : state) {
        q.run_batch(items, 32, 16, [&](xpu::group& g) {
            blas::spmv<double>(
                g, blas::item_view_as<double>(a, g.id(), slots),
                {x.data(), rows, xpu::mem_space::slm},
                {y.data() + static_cast<std::size_t>(g.id()) * rows, rows,
                 xpu::mem_space::slm});
        });
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(bm_spmv_csr)->Arg(32)->Arg(128)->Arg(512);

void bm_spmv_ell(benchmark::State& state)
{
    const index_type rows = static_cast<index_type>(state.range(0));
    const index_type items = 256;
    const auto a = mat::to_ell(work::stencil_3pt<double>(items, rows, 42));
    std::vector<double> x(rows, 1.0);
    std::vector<double> y(static_cast<std::size_t>(rows) * items);
    xpu::queue q(xpu::make_sycl_policy());
    for (auto _ : state) {
        q.run_batch(items, 32, 16, [&](xpu::group& g) {
            blas::spmv<double>(
                g, blas::item_view(a, g.id()),
                {x.data(), rows, xpu::mem_space::slm},
                {y.data() + static_cast<std::size_t>(g.id()) * rows, rows,
                 xpu::mem_space::slm});
        });
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(bm_spmv_ell)->Arg(32)->Arg(128)->Arg(512);

void bm_dot_group_vs_subgroup(benchmark::State& state)
{
    const index_type rows = 128;
    const auto path = state.range(0) == 0 ? xpu::reduce_path::group
                                          : xpu::reduce_path::sub_group;
    std::vector<double> x(rows, 1.0), y(rows, 2.0);
    std::vector<double> sinks(256, 0.0);
    xpu::queue q(xpu::make_sycl_policy());
    for (auto _ : state) {
        q.run_batch(256, 32, 16, [&](xpu::group& g) {
            sinks[g.id()] += blas::dot<double>(
                g, {x.data(), rows, xpu::mem_space::slm},
                {y.data(), rows, xpu::mem_space::slm}, path);
        });
    }
    benchmark::DoNotOptimize(sinks.data());
}
BENCHMARK(bm_dot_group_vs_subgroup)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("subgroup_path");

void bm_solve(benchmark::State& state, solver::solver_type kind)
{
    const index_type items = 128;
    const index_type rows = 64;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 42);
    const auto b = work::random_rhs<double>(items, rows, 7);
    solver::solve_options opts;
    opts.solver = kind;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(1e-8, 300);
    opts.gmres_restart = 20;
    xpu::queue q(xpu::make_sycl_policy());
    for (auto _ : state) {
        mat::batch_dense<double> x(items, rows, 1);
        const auto result = solver::solve(q, a, b, x, opts);
        benchmark::DoNotOptimize(result.log.num_converged());
    }
    state.SetItemsProcessed(state.iterations() * items);
}
void bm_solve_cg(benchmark::State& s) { bm_solve(s, solver::solver_type::cg); }
void bm_solve_bicgstab(benchmark::State& s)
{
    bm_solve(s, solver::solver_type::bicgstab);
}
void bm_solve_gmres(benchmark::State& s)
{
    bm_solve(s, solver::solver_type::gmres);
}
BENCHMARK(bm_solve_cg);
BENCHMARK(bm_solve_bicgstab);
BENCHMARK(bm_solve_gmres);

void bm_ilu0_generate(benchmark::State& state)
{
    const auto mech = work::mechanism_by_name("gri30");
    const auto a = work::generate_mechanism<double>(mech);
    precond::ilu0<double> pc(a);
    xpu::queue q(xpu::make_sycl_policy());
    const index_type elems = static_cast<index_type>(
        precond::ilu0<double>::workspace_elems(a.rows(), a.nnz()));
    std::vector<double> work_buf(static_cast<std::size_t>(elems) *
                                 a.num_batch_items());
    for (auto _ : state) {
        q.run_batch(a.num_batch_items(), 32, 16, [&](xpu::group& g) {
            auto applier = pc.generate(
                g, blas::item_view(a, g.id()),
                {work_buf.data() + static_cast<std::size_t>(g.id()) * elems,
                 elems, xpu::mem_space::global});
            benchmark::DoNotOptimize(applier.factors.data);
        });
    }
    state.SetItemsProcessed(state.iterations() * a.num_batch_items());
}
BENCHMARK(bm_ilu0_generate);

}  // namespace

BENCHMARK_MAIN();
