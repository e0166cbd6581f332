// The differential oracle: every execution path is checked against the
// solo solve of the same request (the pattern of Ginkgo's Intel port,
// which tests every executor against one reference executor). The
// paper's one-work-group-per-system kernels (§3.2) make the property
// exact: a converged system's solution, iteration count and residual norm
// are bit-identical however it reached the device.
//
// Inputs come from `generate(seed)`, a fixed-seed generator over format
// x legal preconditioner x solver x flavor, plus trsv, with zero-RHS and
// singular systems mixed in. A serve path names every axis in `path`;
// `check_resilient` runs `solve_resilient` on native and fp32 storage. A
// failure names the seed, the path and the case, so
// `check_serve_path(path, seed)` or `check_resilient(seed)` re-runs it.
// The serve-facing suites also share its request helpers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batchlin/batchlin.hpp"

namespace oracle {

namespace bl = batchlin;
namespace mat = batchlin::mat;
namespace serve = batchlin::serve;
namespace solver = batchlin::solver;
namespace xpu = batchlin::xpu;
using bl::index_type;
using ptype = batchlin::precond::type;
using stype = batchlin::solver::solver_type;

/// Precision, storage and refinement of a request.
enum class flavor { f64, f64_fp32, f64_refined, f32 };
enum class conditioning { normal, zero_rhs, singular };

/// One request. Requests drawn for one key share everything but `items`,
/// `seed` and `cond`, so they coalesce.
struct request_case {
    flavor kind = flavor::f64;
    solver::matrix_format format = solver::matrix_format::csr;
    ptype pc = ptype::none;
    stype solver = stype::cg;
    index_type rows = 8;
    index_type items = 1;
    std::uint64_t seed = 0;
    conditioning cond = conditioning::normal;
};

inline std::string describe(const request_case& c)
{
    const char* kinds[] = {"f64", "f64/fp32", "f64/fp32/refine3", "f32"};
    const char* conds[] = {"normal", "zero_rhs", "singular"};
    std::ostringstream os;
    os << kinds[static_cast<int>(c.kind)] << ' '
       << solver::to_string(c.format) << '/' << bl::precond::to_string(c.pc)
       << '/' << solver::to_string(c.solver) << " rows=" << c.rows
       << " items=" << c.items << " seed=" << c.seed
       << " cond=" << conds[static_cast<int>(c.cond)];
    return os.str();
}

/// A policy in `mode` whose queues fail the listed launches once each.
inline xpu::exec_policy mode_policy(
    xpu::launch_mode mode,
    const std::vector<std::uint64_t>& faulted_launches = {})
{
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.launch_mode = mode;
    for (const std::uint64_t launch : faulted_launches) {
        policy.faults.events.push_back({xpu::fault_kind::launch_fail, launch});
    }
    return policy;
}

/// CG + Jacobi at 1e-8, for the serve suites' hand-built scenarios.
inline solver::solve_options cg_opts()
{
    solver::solve_options opts;
    opts.solver = stype::cg;
    opts.preconditioner = ptype::jacobi;
    opts.criterion = bl::stop::relative(1e-8, 100);
    return opts;
}

/// A request on `a` with a seeded RHS and a zero initial guess.
template <typename T>
serve::solve_request<T> make_request(
    mat::batch_csr<T> a, const solver::solve_options& opts,
    std::uint64_t rhs_seed, int priority = 0,
    std::chrono::microseconds deadline = std::chrono::microseconds(0))
{
    serve::solve_request<T> req;
    req.b = bl::work::random_rhs<T>(a.num_batch_items(), a.rows(), rhs_seed);
    req.x = mat::batch_dense<T>(a.num_batch_items(), a.rows(), 1);
    req.a = std::move(a);
    req.opts = opts;
    req.priority = priority;
    req.deadline = deadline;
    return req;
}

/// Every key: the legal format x preconditioner cells times the iterative
/// solvers times the flavors, then trsv in both precisions.
inline std::vector<request_case> all_keys()
{
    using enum solver::matrix_format;
    const std::pair<solver::matrix_format, ptype> cells[] = {
        {csr, ptype::none},  {csr, ptype::jacobi}, {csr, ptype::ilu},
        {csr, ptype::isai},  {csr, ptype::block_jacobi},
        {ell, ptype::none},  {ell, ptype::jacobi}, {dense, ptype::none},
        {dense, ptype::jacobi}};
    std::vector<request_case> keys;
    for (const auto& [format, pc] : cells) {
        for (const stype s :
             {stype::cg, stype::bicgstab, stype::gmres, stype::richardson}) {
            for (const flavor k : {flavor::f64, flavor::f64_fp32,
                                   flavor::f64_refined, flavor::f32}) {
                keys.push_back({k, format, pc, s});
            }
        }
    }
    keys.push_back({flavor::f64, csr, ptype::none, stype::trsv});
    keys.push_back({flavor::f32, csr, ptype::none, stype::trsv});
    return keys;
}

/// The request mix of one seed: 8 consecutive keys of `all_keys()` (so
/// consecutive seeds walk the key space), each drawn 2-3 times with 8, 16
/// or 24 rows and 1-4 items. About one request in six has a zero RHS in
/// item 0, and one in six a singular last item.
inline std::vector<request_case> generate(std::uint64_t seed)
{
    const std::vector<request_case> keys = all_keys();
    bl::rng gen(seed);
    std::vector<request_case> out;
    for (std::uint64_t k = 0; k < 8; ++k) {
        request_case c = keys[(seed * 8 + k) % keys.size()];
        c.rows = 8 + 8 * gen.uniform_int(0, 2);
        for (index_type r = gen.uniform_int(2, 3); r > 0; --r) {
            c.items = gen.uniform_int(1, 4);
            c.seed = seed * 1000 + out.size();
            const index_type draw = gen.uniform_int(0, 5);
            c.cond = draw == 0 ? conditioning::zero_rhs
                     : draw == 1 && c.solver != stype::trsv
                         ? conditioning::singular
                         : conditioning::normal;
            out.push_back(c);
        }
    }
    return out;
}

inline solver::solve_options options_of(const request_case& c)
{
    solver::solve_options opts;
    opts.solver = c.solver;
    opts.preconditioner = c.pc;
    opts.criterion = bl::stop::relative(c.kind == flavor::f32 ? 1e-4
                                        : c.kind == flavor::f64_refined
                                            ? 1e-11
                                            : 1e-8,
                                        200);
    opts.gmres_restart = 8;
    opts.richardson_relaxation = c.pc == ptype::none ? 0.35 : 1.0;
    if (c.kind == flavor::f64_fp32 || c.kind == flavor::f64_refined) {
        opts.storage = mat::storage_precision::fp32;
    }
    opts.refine_sweeps = c.kind == flavor::f64_refined ? 3 : 0;
    return opts;
}

/// The case as a request on its native matrix. trsv gets the stencil's
/// lower bidiagonal; a singular item is the pure-Neumann 1D Laplacian
/// (constant null space) against a right-hand side it cannot reach; a
/// zero-RHS request starts from x = 1, so its exact zero is the solver's.
template <typename T>
serve::solve_request<T> request_of(const request_case& c)
{
    mat::batch_csr<T> a = bl::work::stencil_3pt<T>(c.items, c.rows, c.seed);
    for (index_type i = 0; c.cond == conditioning::singular && i < c.rows;
         ++i) {
        for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1]; ++k) {
            a.item_values(c.items - 1)[k] =
                a.col_idxs()[k] != i ? T{-1}
                : i == 0 || i == c.rows - 1 ? T{1}
                                            : T{2};
        }
    }
    if (c.solver == stype::trsv) {
        std::vector<index_type> ptrs{0};
        std::vector<index_type> cols;
        for (index_type i = 0; i < c.rows; ++i) {
            if (i > 0) {
                cols.push_back(i - 1);
            }
            cols.push_back(i);
            ptrs.push_back(static_cast<index_type>(cols.size()));
        }
        mat::batch_csr<T> lower(c.items, c.rows, c.rows, ptrs, cols);
        for (index_type item = 0; item < c.items; ++item) {
            for (index_type i = 0; i < c.rows; ++i) {
                std::copy_n(a.item_values(item) + a.row_ptrs()[i],
                            ptrs[i + 1] - ptrs[i],
                            lower.item_values(item) + ptrs[i]);
            }
        }
        a = std::move(lower);
    }
    serve::solve_request<T> req;
    req.a = a;
    if (c.format == solver::matrix_format::ell) {
        req.a = mat::to_ell(a);
    } else if (c.format == solver::matrix_format::dense) {
        req.a = mat::to_dense(a);
    }
    req.b = bl::work::random_rhs<T>(c.items, c.rows, c.seed + 1);
    req.x = mat::batch_dense<T>(c.items, c.rows, 1);
    req.opts = options_of(c);
    if (c.cond == conditioning::zero_rhs) {
        std::fill_n(req.b.item_values(0), c.rows, T{0});
        std::fill(req.x.values().begin(), req.x.values().end(), T{1});
    }
    return req;
}

/// What a path produced for one request: the log, and x widened to double
/// (exact, so comparing the widened bits compares the original ones).
struct outcome {
    bl::log::batch_log log;
    std::vector<double> x;
};

template <typename T>
outcome outcome_of(const mat::batch_dense<T>& x, bl::log::batch_log log)
{
    return {std::move(log), {x.values().begin(), x.values().end()}};
}

/// Every system's status must match; a system converged in `want` must
/// match its x, iteration count and residual norm bit for bit.
inline void expect_same(const outcome& want, const outcome& got,
                        index_type rows, const std::string& where)
{
    ASSERT_EQ(got.log.num_systems(), want.log.num_systems()) << where;
    for (index_type i = 0; i < want.log.num_systems(); ++i) {
        EXPECT_EQ(got.log.status(i), want.log.status(i)) << where << " #" << i;
        const double res[2] = {want.log.residual_norm(i),
                               got.log.residual_norm(i)};
        EXPECT_TRUE(!want.log.converged(i) ||
                    (std::memcmp(want.x.data() + i * rows,
                                 got.x.data() + i * rows,
                                 rows * sizeof(double)) == 0 &&
                     got.log.iterations(i) == want.log.iterations(i) &&
                     std::memcmp(&res[0], &res[1], sizeof(double)) == 0))
            << where << " system " << i << " differs from the solo solve";
    }
}

/// The reference: `r` solved alone on a fresh queue (`solve_refined` for
/// a refined request), in place.
template <typename T>
bl::log::batch_log solve_alone(serve::solve_request<T>& r)
{
    xpu::queue q(xpu::make_sycl_policy());
    if (r.opts.refine_sweeps > 0) {
        solver::refine_options sweeps;
        sweeps.max_sweeps = r.opts.refine_sweeps;
        return solver::solve_refined(q, r.a, r.b, r.x, r.opts, sweeps).log;
    }
    return solver::solve(q, r.a, r.b, r.x, r.opts).log;
}

/// The solo outcome of a hand-built request, for the serve suites'
/// scenarios that do not come from the generator.
template <typename T>
outcome solo(serve::solve_request<T> r)
{
    bl::log::batch_log log = solve_alone(r);
    return outcome_of(r.x, std::move(log));
}

/// The solo outcome of a generated case. It is checked too: converged
/// true residuals meet the tolerance on the operator solved, a singular
/// system never converges, and a zero RHS converges to an exact 0.
template <typename T>
outcome solo(const request_case& c, const std::string& where)
{
    serve::solve_request<T> r = request_of<T>(c);
    bl::log::batch_log log = solve_alone(r);
    if (c.kind == flavor::f64_fp32) {
        solver::set_storage(r.a, mat::storage_precision::fp32);
    }
    const std::vector<double> res =
        solver::relative_residual_norms(r.a, r.b, r.x);
    for (index_type i = 0; i < c.items; ++i) {
        EXPECT_TRUE(!log.converged(i) ||
                    res[i] <= 10 * r.opts.criterion.tolerance)
            << where << " system " << i << " true residual " << res[i];
    }
    EXPECT_TRUE(c.cond != conditioning::singular ||
                !log.converged(c.items - 1))
        << where << " converged a singular system";
    if (c.cond == conditioning::zero_rhs) {
        EXPECT_TRUE(log.converged(0)) << where;
        EXPECT_EQ(std::count(r.x.item_values(0),
                             r.x.item_values(0) + c.rows, T{0}),
                  c.rows)
            << where << " zero RHS without an exact zero";
    }
    return outcome_of(r.x, std::move(log));
}

/// Both launch modes, for the tests that sweep them.
inline const std::vector<xpu::launch_mode> kLaunchModes{
    xpu::launch_mode::direct, xpu::launch_mode::graph_replay};

/// One serve execution path, every axis explicit.
struct path {
    xpu::launch_mode mode = xpu::launch_mode::direct;
    index_type shards = 1;
    int workers = 1;
    std::chrono::microseconds max_wait{0};
    /// Single failed launches on every shard at launch 0, 3, 7, 12, ...:
    /// the gaps grow, so even a refined batch (several launches per
    /// attempt) soon fits between two, and every retry succeeds.
    bool faults = false;
};

/// Serves `generate(seed)` (the cases `keep` accepts) through a service
/// built from `p`, submitting from two client threads, and checks every
/// reply against its solo solve and the stats books after `drain()`.
/// Returns those stats.
inline serve::service_stats check_serve_path(
    const path& p, std::uint64_t seed,
    const std::function<bool(const request_case&)>& keep = {})
{
    std::ostringstream os;
    os << "seed=" << seed << " path=[" << xpu::to_string(p.mode)
       << " shards=" << p.shards << " workers=" << p.workers
       << " max_wait=" << p.max_wait.count()
       << "us faults=" << p.faults << "]";
    const std::string at = os.str();
    std::vector<request_case> cases = generate(seed);
    std::erase_if(cases,
                  [&](const request_case& c) { return keep && !keep(c); });
    const auto where = [&](std::size_t i) {
        return at + " case#" + std::to_string(i) + "=[" +
               describe(cases[i]) + "]";
    };

    serve::service_config cfg;
    cfg.shards = p.shards;
    cfg.workers = p.workers;
    cfg.max_wait = p.max_wait;
    for (index_type s = 0; p.faults && s < p.shards; ++s) {
        xpu::fault_plan& plan = cfg.shard_faults.emplace_back();
        for (std::uint64_t i = 0, launch = 0; i < 32; ++i, launch += i + 2) {
            plan.events.push_back({xpu::fault_kind::launch_fail, launch});
        }
    }
    serve::solve_service service(mode_policy(p.mode), cfg);

    std::vector<outcome> got(cases.size());
    std::vector<std::string> errors(cases.size());
    const auto client = [&](std::size_t first) {
        std::vector<std::pair<std::size_t, serve::solve_ticket<double>>> d;
        std::vector<std::pair<std::size_t, serve::solve_ticket<float>>> f;
        for (std::size_t i = first; i < cases.size(); i += 2) {
            if (cases[i].kind == flavor::f32) {
                f.emplace_back(i, service.submit(request_of<float>(cases[i])));
            } else {
                d.emplace_back(i,
                               service.submit(request_of<double>(cases[i])));
            }
        }
        const auto collect = [&](auto& tickets) {
            for (auto& [i, ticket] : tickets) {
                auto reply = ticket.get();
                // submit() compresses a plain fp32-storage request in
                // place, and the reply hands that operator back.
                const bool fp32 = std::visit(
                    [](const auto& m) {
                        return m.storage_mode() ==
                               mat::storage_precision::fp32;
                    },
                    reply.a);
                if (reply.status != serve::request_status::ok) {
                    errors[i] = serve::to_string(reply.status) + ": " +
                                reply.error;
                } else if (fp32 != (cases[i].kind == flavor::f64_fp32)) {
                    errors[i] = "handed back the wrong storage mode";
                }
                got[i] = outcome_of(reply.x, std::move(reply.log));
            }
        };
        collect(d);
        collect(f);
    };
    std::thread first(client, 0);
    std::thread second(client, 1);
    first.join();
    second.join();
    service.drain();

    std::uint64_t systems = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        systems += static_cast<std::uint64_t>(cases[i].items);
        EXPECT_EQ(errors[i], "") << where(i);
        const outcome want = cases[i].kind == flavor::f32
                                 ? solo<float>(cases[i], where(i))
                                 : solo<double>(cases[i], where(i));
        expect_same(want, got[i], cases[i].rows, where(i));
    }
    const serve::service_stats s = service.stats();
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    for (const serve::shard_stats& ss : s.shards) {
        routed += ss.routed_systems;
        completed += ss.completed_systems;
        batches += ss.batches_launched;
    }
    EXPECT_TRUE(s.submitted_requests == cases.size() &&
                s.completed_requests == cases.size() &&
                s.completed_systems == systems && routed == systems &&
                completed == systems && batches == s.batches_launched &&
                s.queue_depth_requests + s.queue_depth_systems == 0)
        << at << " stats books do not balance: " << s.to_json();
    return s;
}

/// `solve_resilient` over the case's batch against the same chain on each
/// system alone. The primary stage gets a 3-iteration budget, so the chain
/// gathers most of the batch into re-solve sub-batches.
template <typename T>
void check_resilient_case(const request_case& c, mat::storage_precision st,
                          const std::string& where)
{
    serve::solve_request<T> r = request_of<T>(c);
    solver::set_storage(r.a, st);
    r.opts.storage = mat::storage_precision::native;
    r.opts.refine_sweeps = 0;
    r.opts.criterion.max_iterations = 3;
    const solver::resilient_options chain = solver::default_chain(r.opts);
    const auto run = [&](const solver::batch_matrix<T>& a,
                         const mat::batch_dense<T>& b,
                         mat::batch_dense<T> x) {
        xpu::queue q(xpu::make_sycl_policy());
        bl::log::batch_log log = solver::solve_resilient(q, a, b, x, chain).log;
        return outcome_of(x, std::move(log));
    };
    const outcome batch = run(r.a, r.b, r.x);
    for (index_type i = 0; i < c.items; ++i) {
        using solver::detail::gather_items;
        const std::vector<index_type> one{i};
        expect_same(run(gather_items(r.a, one), gather_items(r.b, one),
                        gather_items(r.x, one)),
                    {solver::split_log(batch.log, i, 1),
                     {batch.x.begin() + i * c.rows,
                      batch.x.begin() + (i + 1) * c.rows}},
                    c.rows,
                    where + " storage=" + mat::to_string(st) + " system " +
                        std::to_string(i));
    }
}

/// Every non-trsv case of `generate(seed)` through `check_resilient_case`,
/// double at native and fp32 storage, float at native.
inline void check_resilient(std::uint64_t seed)
{
    const std::vector<request_case> cases = generate(seed);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const request_case& c = cases[i];
        const std::string where = "seed=" + std::to_string(seed) +
                                  " path=[resilient] case#" +
                                  std::to_string(i) + "=[" + describe(c) +
                                  "]";
        if (c.solver == stype::trsv) {
            continue;
        }
        if (c.kind == flavor::f32) {
            check_resilient_case<float>(c, mat::storage_precision::native,
                                        where);
            continue;
        }
        for (const auto st :
             {mat::storage_precision::native, mat::storage_precision::fp32}) {
            check_resilient_case<double>(c, st, where);
        }
    }
}

}  // namespace oracle
