// batchsolve — command-line driver for the batched solver stack.
//
// The counterpart of the run-test-dpcpp.sh / run-test-cuda.sh scripts of
// the paper's reproducibility appendix: pick a workload (a Table 4
// mechanism, a synthetic stencil, or a BatchCsr file), a solver
// configuration, and a device model; solve; print convergence statistics,
// the true residuals, and the projected device runtime. `--json` emits a
// machine-readable record for scripting.
//
// Examples:
//   batchsolve --input dodecane_lu --batch 1024 --precond jacobi
//   batchsolve --input stencil --rows 128 --solver cg --device PVC-2S
//   batchsolve --input systems.bcsr --solver gmres --restart 30 --json
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <string>

#include "batchlin/batchlin.hpp"
#include "matrix/conversions.hpp"

using namespace batchlin;

namespace {

struct cli_options {
    std::string input = "stencil";
    index_type rows = 64;
    index_type batch = 1024;
    index_type target = 1 << 17;
    std::string solver = "bicgstab";
    std::string precond = "jacobi";
    std::string format = "csr";
    std::string device = "PVC-1S";
    double tol = 1e-9;
    bool absolute = false;
    index_type max_iters = 300;
    index_type restart = 20;
    index_type block_size = 4;
    std::uint64_t seed = 42;
    std::string storage = "native";
    index_type refine_sweeps = 0;
    bool verify = false;
    bool json = false;
    bool serve = false;
    std::string launch_mode = "direct";
    int serve_workers = 2;
    index_type serve_batch = 64;
    long serve_wait_us = 200;
    index_type shards = 1;
    /// Comma-separated device list ("pvc1s,pvc2s"); overrides --shards.
    std::string shard_devices;
    /// Nonzero derives a seeded per-shard chaos fault schedule and turns
    /// failover on.
    std::uint64_t chaos_seed = 0;
    /// Per-launch fault probability of the chaos schedule.
    double fault_rate = 0.05;
    /// Shard to device-lose permanently from launch 0 (-1 = none).
    int kill_shard = -1;
    /// Dump the serve stats snapshot as one JSON line.
    bool serve_stats = false;
};

[[noreturn]] void usage(const char* argv0, int code)
{
    std::printf(
        "usage: %s [options]\n"
        "  --input NAME    drm19|gri12|gri30|dodecane_lu|isooctane,\n"
        "                  'stencil', 'stencil5', or a BatchCsr file path\n"
        "  --rows N        stencil matrix size            [64]\n"
        "  --batch N       systems to solve               [1024]\n"
        "  --target N      batch size for the device-time projection "
        "[131072]\n"
        "  --solver S      cg|bicgstab|gmres|trsv         [bicgstab]\n"
        "  --precond P     none|jacobi|block-jacobi|ilu|isai [jacobi]\n"
        "  --format F      csr|ell|dense                  [csr]\n"
        "  --device D      A100|H100|PVC-1S|PVC-2S        [PVC-1S]\n"
        "  --tol X         tolerance                      [1e-9]\n"
        "  --abs           absolute instead of relative tolerance\n"
        "  --max-iters N   iteration budget               [300]\n"
        "  --restart M     GMRES restart                  [20]\n"
        "  --block-size B  block-Jacobi block size        [4]\n"
        "  --seed S        workload seed                  [42]\n"
        "  --storage-precision P  native|fp32 matrix/precond storage\n"
        "                  [native]\n"
        "  --refine-sweeps N  iterative-refinement sweeps recovering FP64\n"
        "                  accuracy on fp32 storage (0 = off)  [0]\n"
        "  --verify        compute and report true residuals\n"
        "  --json          machine-readable output\n"
        "  --serve         route the batch through serve::solve_service\n"
        "                  as one request per system (CSR only)\n"
        "  --launch-mode M     direct|graph_replay [direct]\n"
        "  --serve-workers N   worker threads                [2]\n"
        "  --serve-batch N     max systems per fused launch  [64]\n"
        "  --serve-wait-us N   batching window in usec       [200]\n"
        "  --shards N          logical device shards to serve across [1]\n"
        "  --shard-devices L   per-shard device list, e.g. pvc1s,pvc1s\n"
        "                      (overrides --shards; emulates each device's\n"
        "                      launch costs)\n"
        "  --chaos-seed S      derive a seeded chaos schedule (sticky\n"
        "                      device loss with revival, kernel hangs,\n"
        "                      NaN poison) per shard and serve through it\n"
        "                      with failover on; shard 0 is spared device\n"
        "                      loss so the run always finishes [0 = off]\n"
        "  --fault-rate X      per-launch fault probability of the chaos\n"
        "                      schedule                      [0.05]\n"
        "  --kill-shard N      permanently device-lose shard N from its\n"
        "                      first launch (failover migrates its work;\n"
        "                      requires --shards >= 2)       [-1 = none]\n"
        "  --serve-stats       dump the serve::service_stats snapshot as\n"
        "                      one JSON line (see serve/stats.hpp)\n",
        argv0);
    std::exit(code);
}

cli_options parse(int argc, char** argv)
{
    cli_options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else if (arg == "--input") {
            o.input = next();
        } else if (arg == "--rows") {
            o.rows = std::atoi(next());
        } else if (arg == "--batch") {
            o.batch = std::atoi(next());
        } else if (arg == "--target") {
            o.target = std::atoi(next());
        } else if (arg == "--solver") {
            o.solver = next();
        } else if (arg == "--precond") {
            o.precond = next();
        } else if (arg == "--format") {
            o.format = next();
        } else if (arg == "--device") {
            o.device = next();
        } else if (arg == "--tol") {
            o.tol = std::atof(next());
        } else if (arg == "--abs") {
            o.absolute = true;
        } else if (arg == "--max-iters") {
            o.max_iters = std::atoi(next());
        } else if (arg == "--restart") {
            o.restart = std::atoi(next());
        } else if (arg == "--block-size") {
            o.block_size = std::atoi(next());
        } else if (arg == "--seed") {
            o.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--storage-precision") {
            o.storage = next();
        } else if (arg == "--refine-sweeps") {
            o.refine_sweeps = std::atoi(next());
        } else if (arg == "--verify") {
            o.verify = true;
        } else if (arg == "--json") {
            o.json = true;
        } else if (arg == "--serve") {
            o.serve = true;
        } else if (arg == "--launch-mode") {
            o.launch_mode = next();
        } else if (arg == "--serve-workers") {
            o.serve_workers = std::atoi(next());
        } else if (arg == "--serve-batch") {
            o.serve_batch = std::atoi(next());
        } else if (arg == "--serve-wait-us") {
            o.serve_wait_us = std::atol(next());
        } else if (arg == "--shards") {
            o.shards = std::atoi(next());
        } else if (arg == "--shard-devices") {
            o.shard_devices = next();
        } else if (arg == "--chaos-seed") {
            o.chaos_seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--fault-rate") {
            o.fault_rate = std::atof(next());
        } else if (arg == "--kill-shard") {
            o.kill_shard = std::atoi(next());
        } else if (arg == "--serve-stats") {
            o.serve_stats = true;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0], 2);
        }
    }
    return o;
}

mat::batch_csr<double> load_workload(const cli_options& o)
{
    if (o.input == "stencil") {
        return work::stencil_3pt<double>(o.batch, o.rows, o.seed);
    }
    if (o.input == "stencil5") {
        return work::stencil_banded<double>(o.batch, o.rows, 2, o.seed);
    }
    for (const work::mechanism& mech : work::pele_mechanisms()) {
        if (mech.name == o.input) {
            return work::generate_mechanism_batch<double>(mech, o.batch,
                                                          o.seed);
        }
    }
    // Fall through: treat as a BatchCsr file path.
    return mat::read_batch_file<double>(o.input);
}

solver::solver_type parse_solver(const std::string& s)
{
    if (s == "cg") return solver::solver_type::cg;
    if (s == "bicgstab") return solver::solver_type::bicgstab;
    if (s == "gmres") return solver::solver_type::gmres;
    if (s == "richardson") return solver::solver_type::richardson;
    if (s == "trsv") return solver::solver_type::trsv;
    BATCHLIN_ENSURE_MSG(false, "unknown solver: " + s);
    return {};
}

precond::type parse_precond(const std::string& s)
{
    if (s == "none") return precond::type::none;
    if (s == "jacobi") return precond::type::jacobi;
    if (s == "block-jacobi") return precond::type::block_jacobi;
    if (s == "ilu") return precond::type::ilu;
    if (s == "isai") return precond::type::isai;
    BATCHLIN_ENSURE_MSG(false, "unknown preconditioner: " + s);
    return {};
}

/// Routes the workload through serve::solve_service as one request per
/// system and gathers the replies back into `x` and a combined log.
/// Exercises the full submit/coalesce/scatter path; the dynamic batcher
/// re-fuses the sliced systems because they share one sparsity pattern.
log::batch_log solve_via_service(const cli_options& o,
                                 const mat::batch_csr<double>& csr,
                                 const mat::batch_dense<double>& b,
                                 mat::batch_dense<double>& x,
                                 const solver::solve_options& opts)
{
    const index_type items = csr.num_batch_items();
    const index_type rows = csr.rows();

    serve::service_config cfg;
    cfg.workers = o.serve_workers;
    cfg.max_batch = o.serve_batch;
    cfg.max_wait = std::chrono::microseconds(o.serve_wait_us);
    cfg.max_queue_systems =
        std::max<size_type>(static_cast<size_type>(items), 1);
    cfg.shards = o.shards;
    if (!o.shard_devices.empty()) {
        cfg.shard_devices = shard::parse_device_list(o.shard_devices);
    }
    const index_type nshards =
        cfg.shard_devices.empty()
            ? cfg.shards
            : static_cast<index_type>(cfg.shard_devices.size());
    if (o.kill_shard >= 0 || o.chaos_seed != 0) {
        cfg.failover = true;
        cfg.shard_faults.resize(static_cast<std::size_t>(nshards));
    }
    if (o.kill_shard >= 0) {
        BATCHLIN_ENSURE_MSG(o.kill_shard < nshards,
                            "--kill-shard is out of range");
        BATCHLIN_ENSURE_MSG(nshards >= 2,
                            "--kill-shard needs --shards >= 2 so a "
                            "survivor can absorb the migrated work");
        xpu::fault_event lost;
        lost.kind = xpu::fault_kind::device_lost;
        lost.launch = 0;
        lost.revive = 0;  // never comes back
        cfg.shard_faults[static_cast<std::size_t>(o.kill_shard)]
            .events.push_back(lost);
    }
    if (o.chaos_seed != 0) {
        // One deterministic schedule per (seed, shard): walk the first 64
        // launch slots and fault each with probability --fault-rate,
        // cycling device loss (with revival a few launches later, so the
        // half-open probes restore the lane), a short hang, and a NaN
        // poison strike. Shard 0 is spared device loss: a schedule that
        // can momentarily lose every lane would fail requests with "no
        // healthy shard", which is chaos past what a demo tool should
        // default to.
        for (index_type s = 0; s < nshards; ++s) {
            rng chaos(o.chaos_seed * 1000003ULL +
                      static_cast<std::uint64_t>(s));
            for (std::uint64_t launch = 0; launch < 64; ++launch) {
                if (chaos.uniform(0.0, 1.0) >= o.fault_rate) {
                    continue;
                }
                xpu::fault_event ev;
                switch (chaos.uniform_int(0, s == 0 ? 1 : 2)) {
                case 0:
                    ev.kind = xpu::fault_kind::hang;
                    ev.launch = launch;
                    ev.hang_us = static_cast<std::uint32_t>(
                        chaos.uniform_int(500, 2500));
                    break;
                case 1:
                    ev.kind = xpu::fault_kind::poison;
                    ev.launch = launch;
                    ev.group = 0;
                    ev.phase = 1;
                    ev.target = xpu::fault_target::slm;
                    ev.mode = xpu::poison_mode::nan;
                    break;
                default:
                    ev.kind = xpu::fault_kind::device_lost;
                    ev.launch = launch;
                    ev.revive = launch + 2 +
                                static_cast<std::uint64_t>(
                                    chaos.uniform_int(0, 8));
                    break;
                }
                cfg.shard_faults[static_cast<std::size_t>(s)]
                    .events.push_back(ev);
            }
        }
    }
    xpu::exec_policy policy = perf::device_by_name(o.device).make_policy();
    policy.launch_mode = xpu::parse_launch_mode(o.launch_mode);
    serve::solve_service service(policy, cfg);

    std::vector<serve::solve_service::ticket<double>> tickets;
    tickets.reserve(static_cast<std::size_t>(items));
    for (index_type i = 0; i < items; ++i) {
        serve::solve_request<double> req;
        mat::batch_csr<double> one(1, rows, rows, csr.row_ptrs(),
                                   csr.col_idxs());
        std::copy_n(csr.item_values(i), csr.nnz(), one.item_values(0));
        req.a = std::move(one);
        req.b = mat::batch_dense<double>(1, rows, 1);
        std::copy_n(b.item_values(i), b.item_size(),
                    req.b.item_values(0));
        req.x = mat::batch_dense<double>(1, rows, 1);
        req.opts = opts;
        tickets.push_back(service.submit(std::move(req)));
    }

    log::batch_log log(items);
    index_type max_fused = 0;
    for (index_type i = 0; i < items; ++i) {
        serve::solve_reply<double> reply =
            tickets[static_cast<std::size_t>(i)].get();
        BATCHLIN_ENSURE_MSG(reply.status == serve::request_status::ok,
                            "serve request " + std::to_string(i) + " " +
                                serve::to_string(reply.status) +
                                (reply.error.empty() ? ""
                                                     : ": " + reply.error));
        std::copy_n(reply.x.item_values(0), reply.x.item_size(),
                    x.item_values(i));
        log.record(i, reply.log.iterations(0), reply.log.residual_norm(0),
                   reply.log.status(0));
        max_fused = std::max(max_fused, reply.fused_systems);
    }

    // Every ticket has resolved, but a reply is fulfilled before the
    // worker's locked bookkeeping runs; drain waits the books settled so
    // the dump below balances.
    service.drain();
    const serve::service_stats s = service.stats();
    if (o.serve_stats) {
        // One self-contained JSON line (serve::service_stats::to_json),
        // greppable out of mixed output; the chaos soak in scripts/
        // parses the same shape.
        std::printf("%s\n", s.to_json().c_str());
    }
    if (!o.json) {
        std::printf("serve:    %d workers, window %ld us, %llu launches, "
                    "mean batch %.1f, max fused %d\n",
                    cfg.workers, o.serve_wait_us,
                    static_cast<unsigned long long>(s.batches_launched),
                    s.mean_batch_size, max_fused);
        std::printf("serve:    launch mode %s, %llu recorded, %llu replays "
                    "(%llu rebind-only)\n",
                    xpu::to_string(service.launch_mode()).c_str(),
                    static_cast<unsigned long long>(s.launches_recorded),
                    static_cast<unsigned long long>(s.replays),
                    static_cast<unsigned long long>(s.rebind_only));
        std::printf("serve:    p50/p99 latency %.3f/%.3f ms, "
                    "%.0f solves/sec\n",
                    s.p50_latency_seconds * 1e3, s.p99_latency_seconds * 1e3,
                    s.solves_per_sec);
        if (s.refined_batches > 0) {
            std::printf("serve:    %llu refined batches, %llu correction "
                        "sweeps, %llu native fallbacks\n",
                        static_cast<unsigned long long>(s.refined_batches),
                        static_cast<unsigned long long>(s.refine_sweeps),
                        static_cast<unsigned long long>(s.refine_fallbacks));
        }
        if (s.shards.size() > 1) {
            for (const serve::shard_stats& ss : s.shards) {
                std::printf(
                    "shard %2d: %s [%s], %llu routed / %llu solved "
                    "systems, %llu launches, %llu steals, %llu faults, "
                    "%llu trips%s, %.0f solves/sec\n",
                    ss.shard, ss.device.c_str(), ss.state.c_str(),
                    static_cast<unsigned long long>(ss.routed_systems),
                    static_cast<unsigned long long>(ss.completed_systems),
                    static_cast<unsigned long long>(ss.batches_launched),
                    static_cast<unsigned long long>(ss.steals),
                    static_cast<unsigned long long>(ss.launch_faults),
                    static_cast<unsigned long long>(ss.breaker_trips),
                    ss.breaker_active ? " (breaker open)" : "",
                    ss.solves_per_sec);
            }
        }
        if (s.evictions > 0 || s.migrations > 0 || s.probes > 0) {
            std::printf(
                "chaos:    %llu evictions (%llu by watchdog), %llu "
                "migrations (%llu systems), %llu probes (%llu ok)\n",
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.watchdog_evictions),
                static_cast<unsigned long long>(s.migrations),
                static_cast<unsigned long long>(s.migrated_systems),
                static_cast<unsigned long long>(s.probes),
                static_cast<unsigned long long>(s.probe_successes));
        }
    }
    return log;
}

}  // namespace

int main(int argc, char** argv)
try {
    const cli_options o = parse(argc, argv);

    const mat::batch_csr<double> csr = load_workload(o);
    const index_type items = csr.num_batch_items();
    const index_type rows = csr.rows();
    solver::batch_matrix<double> a = csr;
    if (o.format == "ell") {
        a = mat::to_ell(csr);
    } else if (o.format == "dense") {
        a = mat::to_dense(csr);
    } else {
        BATCHLIN_ENSURE_MSG(o.format == "csr",
                            "unknown format: " + o.format);
    }
    const auto b = work::mechanism_rhs<double>(items, rows, o.seed + 7);
    mat::batch_dense<double> x(items, rows, 1);

    solver::solve_options opts;
    opts.solver = parse_solver(o.solver);
    opts.preconditioner = parse_precond(o.precond);
    opts.criterion = o.absolute ? stop::absolute(o.tol, o.max_iters)
                                : stop::relative(o.tol, o.max_iters);
    opts.gmres_restart = o.restart;
    opts.block_jacobi_size = o.block_size;
    opts.storage = mat::parse_storage_precision(o.storage);
    opts.refine_sweeps = o.refine_sweeps;

    if (o.serve) {
        BATCHLIN_ENSURE_MSG(o.format == "csr",
                            "--serve supports the csr format only");
        const log::batch_log log = solve_via_service(o, csr, b, x, opts);
        double worst = 0.0;
        if (o.verify) {
            for (const double r : solver::relative_residual_norms(a, b, x)) {
                worst = std::max(worst, r);
            }
        }
        if (o.json) {
            std::printf(
                "{\"input\":\"%s\",\"rows\":%d,\"batch\":%d,"
                "\"solver\":\"%s\",\"precond\":\"%s\",\"mode\":\"serve\","
                "\"converged\":%d,\"mean_iters\":%.2f,\"max_iters\":%d",
                o.input.c_str(), rows, items, o.solver.c_str(),
                o.precond.c_str(), log.num_converged(),
                log.mean_iterations(), log.max_iterations());
            if (o.verify) {
                std::printf(",\"worst_true_rel_residual\":%.3e", worst);
            }
            std::printf("}\n");
        } else {
            std::printf("result:   %d/%d converged, iterations "
                        "min/mean/max = %d/%.1f/%d\n",
                        log.num_converged(), items, log.min_iterations(),
                        log.mean_iterations(), log.max_iterations());
            if (o.verify) {
                std::printf("verify:   worst true relative residual %.3e\n",
                            worst);
            }
        }
        return log.num_converged() == items ? EXIT_SUCCESS : 1;
    }

    if (o.refine_sweeps > 0) {
        // Refined solo path: the iterative-refinement driver runs a
        // convergence-dependent number of launches, so the single-launch
        // device projection does not apply — report the refinement
        // outcome instead.
        xpu::queue q(perf::device_by_name(o.device).make_policy());
        solver::refine_options ropts;
        ropts.max_sweeps = o.refine_sweeps;
        const solver::refined_result rr =
            solver::solve_refined(q, a, b, x, opts, ropts);
        double worst = 0.0;
        for (const double r : rr.true_residuals) {
            worst = std::max(worst, r);
        }
        if (o.json) {
            std::printf(
                "{\"input\":\"%s\",\"rows\":%d,\"batch\":%d,"
                "\"solver\":\"%s\",\"precond\":\"%s\",\"mode\":\"refined\","
                "\"storage\":\"%s\",\"converged\":%d,\"mean_iters\":%.2f,"
                "\"max_iters\":%d,\"sweeps\":%d,\"fell_back\":%s,"
                "\"worst_true_rel_residual\":%.3e}\n",
                o.input.c_str(), rows, items, o.solver.c_str(),
                o.precond.c_str(),
                opts.storage == mat::storage_precision::fp32 ? "fp32"
                                                             : "native",
                rr.log.num_converged(), rr.log.mean_iterations(),
                rr.log.max_iterations(), rr.sweeps,
                rr.fell_back ? "true" : "false", worst);
        } else {
            std::printf("workload: %s, %d systems of %dx%d (nnz %d), "
                        "format %s\n",
                        o.input.c_str(), items, rows, rows, csr.nnz(),
                        o.format.c_str());
            std::printf("refined:  %s storage, %d correction sweeps%s\n",
                        opts.storage == mat::storage_precision::fp32
                            ? "fp32"
                            : "native",
                        rr.sweeps,
                        rr.fell_back ? ", fell back to native" : "");
            std::printf("result:   %d/%d converged, iterations "
                        "min/mean/max = %d/%.1f/%d\n",
                        rr.log.num_converged(), items,
                        rr.log.min_iterations(), rr.log.mean_iterations(),
                        rr.log.max_iterations());
            std::printf("verify:   worst true relative residual %.3e\n",
                        worst);
        }
        return rr.log.num_converged() == items ? EXIT_SUCCESS : 1;
    }

    batch_solver handle(perf::device_by_name(o.device), opts);
    const solver::solve_result result = handle.solve<double>(a, b, x);
    const perf::time_breakdown t =
        handle.project<double>(result, a, o.target);

    double worst_res = 0.0;
    if (o.verify) {
        for (const double r : solver::relative_residual_norms(a, b, x)) {
            worst_res = std::max(worst_res, r);
        }
    }

    if (o.json) {
        std::printf(
            "{\"input\":\"%s\",\"rows\":%d,\"batch\":%d,"
            "\"solver\":\"%s\",\"precond\":\"%s\",\"format\":\"%s\","
            "\"device\":\"%s\",\"converged\":%d,\"mean_iters\":%.2f,"
            "\"max_iters\":%d,\"work_group\":%d,\"sub_group\":%d,"
            "\"reduction\":\"%s\",\"slm_bytes_per_group\":%lld,"
            "\"projected_ms\":%.6f,\"bound_by\":\"%s\",\"occupancy\":%.3f",
            o.input.c_str(), rows, items, o.solver.c_str(),
            o.precond.c_str(), o.format.c_str(), o.device.c_str(),
            result.log.num_converged(), result.log.mean_iterations(),
            result.log.max_iterations(), result.config.work_group_size,
            result.config.sub_group_size,
            xpu::to_string(result.config.reduction).c_str(),
            static_cast<long long>(result.plan.slm_bytes),
            t.total_seconds * 1e3, t.bound_by, t.occupancy);
        if (o.verify) {
            std::printf(",\"worst_true_rel_residual\":%.3e", worst_res);
        }
        std::printf("}\n");
    } else {
        std::printf("workload: %s, %d systems of %dx%d (nnz %d), "
                    "format %s\n",
                    o.input.c_str(), items, rows, rows, csr.nnz(),
                    o.format.c_str());
        std::printf("solver:   %s + %s, %s tol %.1e, budget %d\n",
                    o.solver.c_str(), o.precond.c_str(),
                    o.absolute ? "absolute" : "relative", o.tol,
                    o.max_iters);
        std::printf("result:   %d/%d converged, iterations "
                    "min/mean/max = %d/%.1f/%d\n",
                    result.log.num_converged(), items,
                    result.log.min_iterations(),
                    result.log.mean_iterations(),
                    result.log.max_iterations());
        std::printf("launch:   work-group %d, sub-group %d, %s reduction, "
                    "%lld B SLM/group\n",
                    result.config.work_group_size,
                    result.config.sub_group_size,
                    xpu::to_string(result.config.reduction).c_str(),
                    static_cast<long long>(result.plan.slm_bytes));
        std::printf("device:   %s, projected %.3f ms for %d systems "
                    "(bound by %s, occupancy %.0f%%)\n",
                    o.device.c_str(), t.total_seconds * 1e3, o.target,
                    t.bound_by, t.occupancy * 100.0);
        if (o.verify) {
            std::printf("verify:   worst true relative residual %.3e\n",
                        worst_res);
        }
    }
    return result.log.num_converged() == items ? EXIT_SUCCESS : 1;
} catch (const std::exception& e) {
    std::fprintf(stderr, "batchsolve: %s\n", e.what());
    return 2;
}
