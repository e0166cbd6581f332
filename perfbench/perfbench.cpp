// perfbench — the repository's end-to-end + per-layer benchmark binary.
//
//   perfbench --workload pele_newton|serve_mixed --seed N
//             --seconds S --trace 0|1 [--trace-file PATH] [--team T]
//
// Drives the library only through its public API (solver::solve,
// solver::solve_refined, solver::relative_residual_norms, make_profile +
// perf::estimate_time, xpu::queue profiling, serve::solve_service) and
// measures each layer from outside: it times its own calls into a layer
// and reads the counters the library already exports (xpu::counters,
// solve_result, solve_reply, service_stats). The workload inputs are
// generated from --seed; the library only ever sees the generated inputs.
//
// Output: one JSON object on the last line of stdout with run info, the
// correctness gate (`correct`, systems `attempted` / `failed`), the
// end-to-end metrics of the untraced phase and, with --trace 1, the
// per-layer metrics of the traced phase. perfbench/run.py builds this
// binary, pins the environment and turns that line into the benchmark's
// result line. Exit code 1 when the correctness gate fails, 2 on a usage
// or environment error.
//
// Which layer metric should move which end-to-end metric, and where:
//
//   layer (metrics)                moves                    on
//   workload, matrix (setup.*)     setup_s                  all
//   xpu launch (xpu.launches_per_call, groups_per_call,
//     launch_wall_us_p50, team_threads)
//                                  latency_p50_ms,          pele_newton
//                                  solves_per_s
//   xpu graph (xpu.graph.*)        latency_p50_ms           serve_mixed
//   blas + precond                 modeled_us_per_system    pele_newton
//     (kernel.*: bytes move it; flops do not while HBM-bound)
//   solver (solver.*)              solves_per_s,            both
//                                  modeled_us_per_system;
//     barriers and refinement metrics also move latency_p50_ms on
//     serve_mixed
//   perfmodel (perf.*)             modeled_us_per_system    pele_newton
//   serve (serve.*)                latency_p50_ms           serve_mixed
//   shard (shard.*)                latency_p50_ms,          serve_mixed
//                                  modeled_us_per_system
//   generator, host (gen.*,        validity of the run      all
//     host.*, trace.*)
//
// A per-layer metric of a layer that does no work on a workload (serve.*
// on pele_newton, perf.* on the serve workloads) is reported as 0.
#include <omp.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfmodel/cost_model.hpp"
#include "perfmodel/device_spec.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "solver/dispatch.hpp"
#include "solver/handle.hpp"
#include "solver/refined.hpp"
#include "solver/residual.hpp"
#include "trace.hpp"
#include "workload/chemistry.hpp"
#include "workload/stencil.hpp"

namespace {

using namespace batchlin;
using perfbench::now_us;
using perfbench::report;
using perfbench::tracer;

// ---------------------------------------------------------------------
// Run-wide constants
// ---------------------------------------------------------------------

/// Setup (inputs, queue or service, first verified call) is repeated this
/// many times per run and reported as the median, so one slow start-up
/// does not move setup_s.
constexpr int kSetupReps = 5;

/// Leading share of each timed phase that warms caches and the batcher
/// and is excluded from the statistics (it is still correctness-checked).
constexpr double kWarmupFrac = 0.1;
/// serve_mixed throughput window: the open-loop rate is set by the
/// arrivals, so windows only need to hold enough requests (~2,500) to
/// average the request mix.
constexpr double kWindowSeconds = 0.5;
/// Service statistics are snapshotted this often during a serve phase;
/// modeled_us_per_system is the median over these windows, so a stretch
/// of odd batching around one host stall moves one window, not the run.
constexpr double kSnapshotSeconds = 0.1;
/// Spans kept by the traced phase (bounds memory and the trace file).
constexpr std::size_t kMaxSpans = 400'000;
/// True-residual margin over rtol the solver tests allow for unrefined
/// solves (the Krylov solvers monitor the implicit residual).
constexpr double kResidualMargin = 50.0;

/// BATCHLIN_* variables that rewrite library defaults inside
/// constructors; any of them would silently change what is measured.
constexpr const char* kForbiddenEnv[] = {
    "BATCHLIN_SHARDS",       "BATCHLIN_SHARD_DEVICES",
    "BATCHLIN_LAUNCH_MODE",  "BATCHLIN_FAILOVER",
    "BATCHLIN_STORAGE",      "BATCHLIN_SERVE_STAGE_PROBE",
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer: distinct, well-spread sub-seeds per input.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// CPUs available to the process (OpenMP's count, taken before any
/// thread binding narrows the initial thread's affinity).
int host_cpus() { return omp_get_num_procs(); }

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Fixed reference work owned by the benchmark (a dependent FP chain plus
/// a streaming pass over 8 MiB), timed at the start and end of every run:
/// when it slows down, the host slowed down, not the library.
double reference_loop_ms()
{
    static std::vector<double> buf(1 << 20, 1.0);
    const double t0 = now_us();
    double acc = 1.0;
    for (int i = 0; i < 4'000'000; ++i) {
        acc = acc * 0.999999 + 1e-7;
    }
    for (int pass = 0; pass < 8; ++pass) {
        for (double& v : buf) {
            v = v * 0.5 + acc;
        }
    }
    const double ms = (now_us() - t0) / 1e3;
    // Keep the work observable so it cannot be optimized away.
    if (buf[static_cast<std::size_t>(acc) % buf.size()] < 0.0) {
        std::fputs("", stderr);
    }
    return ms;
}

/// The PVC-1S SYCL policy with every field spelled out, so a changed
/// library default cannot change what this benchmark measures.
xpu::exec_policy pvc_policy(xpu::launch_mode mode)
{
    xpu::exec_policy p;
    p.model = xpu::prog_model::sycl;
    p.allowed_sub_group_sizes = {16, 32};
    p.has_group_reduction = true;
    p.num_stacks = 1;
    p.slm_bytes_per_group = 128 * 1024;
    p.sub_group_switch_rows = 64;
    p.sub_group_reduce_rows = 32;
    p.max_work_group_size = 1024;
    // Launch costs are charged per shard by the serve registry (explicit
    // PVC-1S shards); the policy itself charges none.
    p.emulated_launch_us = 0.0;
    p.emulated_replay_us = 0.0;
    p.emulated_record_us = 0.0;
    p.launch_mode = mode;
    p.check_level = xpu::check_level::none;
    p.lane_order = xpu::lane_order::ascending;
    p.lane_order_seed = 0x9e3779b9u;
    p.faults = xpu::fault_plan{};
    return p;
}

/// Solve options with every field set explicitly (the storage default
/// would otherwise follow the environment).
solver::solve_options make_opts(solver::solver_type solver, double rtol,
                                index_type max_iters)
{
    solver::solve_options o;
    o.solver = solver;
    o.preconditioner = precond::type::jacobi;
    o.criterion = stop::relative(rtol, max_iters);
    o.gmres_restart = 10;
    o.block_jacobi_size = 4;
    o.richardson_relaxation = 0.9;
    o.slm = solver::slm_mode::priority;
    o.sub_group_size = 0;
    o.reduction = std::nullopt;
    o.trsv_triangle = solver::triangle::automatic;
    o.record_history = false;
    o.zero_spill = true;
    o.storage = mat::storage_precision::native;
    o.refine_sweeps = 0;
    return o;
}

// ---------------------------------------------------------------------
// Shared result plumbing
// ---------------------------------------------------------------------

struct args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_file;
    int team = 1;
};

/// What one workload run produced. `layer` is filled only when tracing.
struct outcome {
    report e2e;
    report layer;
    std::uint64_t attempted = 0;  // systems
    std::uint64_t failed = 0;     // systems
    std::vector<std::string> failures;

    void fail(std::uint64_t systems, const std::string& why)
    {
        failed += systems;
        if (failures.size() < 8) {
            failures.push_back(why);
        }
    }
};

/// Number of systems among the first `count` whose solution in `got` is
/// not bit-identical to the one in `want`.
index_type count_mismatches(const mat::batch_dense<double>& got,
                            const mat::batch_dense<double>& want,
                            index_type count)
{
    index_type bad = 0;
    const std::size_t n = static_cast<std::size_t>(got.rows());
    for (index_type i = 0; i < count; ++i) {
        const std::size_t off = static_cast<std::size_t>(i) * n;
        if (std::memcmp(got.values().data() + off,
                        want.values().data() + off,
                        n * sizeof(double)) != 0) {
            ++bad;
        }
    }
    return bad;
}

/// Adds the counter-derived kernel metrics of `totals` over `systems`.
void add_kernel_metrics(report& r, const xpu::counters& totals,
                        double systems)
{
    const double global =
        totals.global_read_bytes + totals.global_write_bytes;
    r.add("kernel.flops_per_system", "flop", totals.flops / systems);
    r.add("kernel.global_bytes_per_system", "B", global / systems);
    r.add("kernel.slm_bytes_per_system", "B", totals.slm_bytes / systems);
    r.add("kernel.constant_bytes_per_system", "B",
          totals.constant_read_bytes / systems);
    // Arithmetic intensity against memory-side traffic (global + read-only
    // operands); SLM traffic stays on-chip.
    r.add("kernel.flops_per_byte", "flop/B",
          totals.flops / std::max(1.0, global + totals.constant_read_bytes));
    r.add("kernel.slm_footprint_bytes", "B",
          static_cast<double>(totals.slm_footprint_bytes));
}

/// Per-solver-kind counter metrics (iterations and barriers repeat
/// exactly for a given seed: they come from the deterministic reference
/// solves, not from the timed traffic).
struct kind_counters {
    std::string name;
    double iterations = 0.0;
    double systems = 0.0;
    double barriers = 0.0;
};

void add_solver_kind_metrics(report& r,
                             const std::vector<std::string>& all_kinds,
                             const std::vector<kind_counters>& measured)
{
    for (const std::string& k : all_kinds) {
        const kind_counters* m = nullptr;
        for (const kind_counters& c : measured) {
            if (c.name == k) {
                m = &c;
            }
        }
        r.add("solver.iters_mean." + k, "iter",
              m ? m->iterations / m->systems : 0.0);
        r.add("solver.barriers_per_iter." + k, "barrier/iter",
              m && m->iterations > 0 ? m->barriers / m->iterations : 0.0);
    }
}

const std::vector<std::string>& pele_mech_names()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const work::mechanism& m : work::pele_mechanisms()) {
            out.push_back(m.name);
        }
        return out;
    }();
    return names;
}

const std::vector<std::string>& serve_kind_names()
{
    static const std::vector<std::string> kinds = {"cg8", "drm19x8",
                                                   "gmres32", "gri30x4r"};
    return kinds;
}

/// Every solver kind any workload reports, so every traced run prints the
/// same metric names (kinds a workload does not run report 0).
const std::vector<std::string>& all_solver_kinds()
{
    static const std::vector<std::string> kinds = [] {
        std::vector<std::string> out = pele_mech_names();
        out.insert(out.end(), serve_kind_names().begin(),
                   serve_kind_names().end());
        return out;
    }();
    return kinds;
}

/// Span names whose self times every traced run reports.
constexpr const char* kSpanNames[] = {"generate", "call",   "solve",
                                      "launch",   "check",  "request",
                                      "gen",      "submit", "queue",
                                      "get"};

void add_self_times(report& r, const tracer& tr)
{
    const auto self = tr.self_times();
    for (const char* name : kSpanNames) {
        const auto it = self.find(name);
        r.add(std::string("trace.self_us.") + name, "us",
              it == self.end() ? 0.0 : it->second.mean_us());
    }
}

/// Layer metrics that do not apply to a workload, reported as 0 so every
/// traced run prints the same names.
void add_zero(report& r, std::initializer_list<std::pair<const char*,
                                                         const char*>> ms)
{
    for (const auto& [name, unit] : ms) {
        r.add(name, unit, 0.0);
    }
}

// ---------------------------------------------------------------------
// pele_newton
// ---------------------------------------------------------------------
//
// Why: the paper's Newton-loop re-solve (§4.1, Table 4). The kernel,
// solver, precond and xpu layers do almost all the work and serve/shard
// do none — a kernel change shows here, and a serve change must not.
// Each call re-solves one batch of kPeleCells cells of one Table 4
// mechanism from a zero guess (BatchCsr, BiCGSTAB + scalar Jacobi, rtol
// 1e-8); calls rotate over all five mechanisms (22 to 144 rows), so both
// sub-group sizes and both reduction paths run. One persistent
// xpu::queue, one caller thread, an OpenMP team of --team threads.

constexpr index_type kPeleCells = 2048;
constexpr double kPeleRtol = 1e-8;
constexpr index_type kPeleMaxIters = 300;

struct pele_input {
    work::mechanism mech;
    solver::batch_matrix<double> a;
    mat::batch_dense<double> b;
    mat::batch_dense<double> x;
    mat::batch_dense<double> want_x;  // reference solution (verified)
};

std::vector<pele_input> make_pele_inputs(std::uint64_t seed)
{
    std::vector<pele_input> in;
    std::uint64_t salt = 0;
    for (const work::mechanism& mech : work::pele_mechanisms()) {
        pele_input p;
        p.mech = mech;
        p.a = work::generate_mechanism_batch<double>(mech, kPeleCells,
                                                     mix_seed(seed, ++salt));
        p.b = work::mechanism_rhs<double>(kPeleCells, mech.rows,
                                          mix_seed(seed, ++salt));
        p.x = mat::batch_dense<double>(kPeleCells, mech.rows, 1);
        in.push_back(std::move(p));
    }
    return in;
}

/// Convergence + true-residual gate of one pele solve; returns the
/// number of failed systems and raises `worst` to the largest relative
/// true residual seen.
index_type pele_gate(const pele_input& p, const solver::solve_result& res,
                     double& worst)
{
    const std::vector<double> rel =
        solver::relative_residual_norms(p.a, p.b, p.x);
    index_type bad = 0;
    for (index_type i = 0; i < kPeleCells; ++i) {
        const double r = rel[static_cast<std::size_t>(i)];
        worst = std::max(worst, r);
        if (!res.log.converged(i) || !(r <= kResidualMargin * kPeleRtol)) {
            ++bad;
        }
    }
    return bad;
}

struct pele_phase {
    std::vector<double> call_ms;                 // all calls
    std::vector<std::vector<double>> mech_ms;    // per mechanism
    std::vector<double> launch_wall_us;          // traced phase only
};

pele_phase run_pele_phase(xpu::queue& q, std::vector<pele_input>& in,
                          const solver::solve_options& opts, double seconds,
                          outcome& out, tracer* tr, std::int64_t& call_id)
{
    pele_phase ph;
    ph.mech_ms.resize(in.size());
    q.enable_profiling(tr != nullptr);
    const double t_end = now_us() + seconds * 1e6;
    const double t_warm = now_us() + kWarmupFrac * seconds * 1e6;
    while (now_us() < t_end) {
        const bool counted = now_us() >= t_warm;
        for (std::size_t m = 0; m < in.size(); ++m) {
            pele_input& p = in[m];
            const double t0 = now_us();
            p.x.fill(0.0);
            q.clear_launch_history();
            const double t1 = now_us();
            const solver::solve_result res =
                solver::solve(q, p.a, p.b, p.x, opts);
            const double t2 = now_us();
            // Gate: every system converged and bit-identical to the
            // verified reference solve of the same inputs.
            out.attempted += static_cast<std::uint64_t>(kPeleCells);
            const index_type unconverged =
                kPeleCells - res.log.num_converged();
            const index_type mismatched =
                count_mismatches(p.x, p.want_x, kPeleCells);
            if (unconverged > 0 || mismatched > 0) {
                out.fail(static_cast<std::uint64_t>(
                             std::max(unconverged, mismatched)),
                         p.mech.name + ": unconverged or not "
                                       "bit-identical to the reference");
            }
            const double t3 = now_us();
            if (counted) {
                ph.call_ms.push_back((t2 - t1) / 1e3);
                ph.mech_ms[m].push_back((t2 - t1) / 1e3);
            }
            if (tr == nullptr) {
                continue;
            }
            const std::vector<xpu::launch_record> hist = q.launch_history();
            for (const xpu::launch_record& rec : hist) {
                if (counted) {
                    ph.launch_wall_us.push_back(rec.wall_seconds * 1e6);
                }
            }
            if (tr->has_room(3 + hist.size())) {
                const std::int64_t id = call_id++;
                const std::int64_t root = tr->add("call", t0, t3, -1, id);
                const std::int64_t solve = tr->add("solve", t1, t2, root, id);
                // Launch records carry durations only; they end where
                // the solve call ends, back to back.
                double at = t2;
                for (const xpu::launch_record& rec : hist) {
                    at -= rec.wall_seconds * 1e6;
                }
                for (const xpu::launch_record& rec : hist) {
                    tr->add("launch", at, at + rec.wall_seconds * 1e6, solve,
                            id);
                    at += rec.wall_seconds * 1e6;
                }
                tr->add("check", t2, t3, root, id);
            }
        }
    }
    q.enable_profiling(false);
    return ph;
}

outcome run_pele(const args& a, tracer& tr)
{
    outcome out;
    const solver::solve_options opts =
        make_opts(solver::solver_type::bicgstab, kPeleRtol, kPeleMaxIters);

    // Setup: input generation, queue construction, and the first (cold)
    // call up to its verified result — repeated, reported as the median.
    std::vector<double> setup_s, gen_ms, first_ms;
    std::vector<pele_input> in;
    std::unique_ptr<xpu::queue> q;
    double worst_resid = 0.0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        in.clear();
        q.reset();
        const double t0 = now_us();
        in = make_pele_inputs(a.seed);
        const double t1 = now_us();
        q = std::make_unique<xpu::queue>(
            pvc_policy(xpu::launch_mode::direct));
        const double t2 = now_us();
        const solver::solve_result res =
            solver::solve(*q, in[0].a, in[0].b, in[0].x, opts);
        const double t3 = now_us();
        const index_type bad = pele_gate(in[0], res, worst_resid);
        const double t4 = now_us();
        out.attempted += static_cast<std::uint64_t>(kPeleCells);
        if (bad > 0) {
            out.fail(static_cast<std::uint64_t>(bad),
                     "setup: first call failed the gate");
        }
        if (tr.on()) {
            tr.add("generate", t0, t1);
        }
        setup_s.push_back((t4 - t0) / 1e6);
        gen_ms.push_back((t1 - t0) / 1e3);
        first_ms.push_back((t3 - t2) / 1e3);
    }

    // Reference pass: one verified solve per mechanism. Counter-derived
    // metrics come from here, so they repeat exactly for a given seed.
    xpu::counters totals;
    double systems = 0.0;
    double modeled_s = 0.0;
    perf::time_breakdown model_sum;
    double occupancy_sum = 0.0;
    std::vector<kind_counters> kinds;
    const perf::device_spec pvc = perf::pvc_1s();
    for (pele_input& p : in) {
        p.x.fill(0.0);
        const solver::solve_result res =
            solver::solve(*q, p.a, p.b, p.x, opts);
        out.attempted += static_cast<std::uint64_t>(kPeleCells);
        const index_type bad = pele_gate(p, res, worst_resid);
        if (bad > 0) {
            out.fail(static_cast<std::uint64_t>(bad),
                     p.mech.name + ": reference solve failed the gate");
        }
        p.want_x = p.x;
        totals += res.stats;
        systems += kPeleCells;
        const perf::time_breakdown t = perf::estimate_time(
            pvc, make_profile<double>(res, p.a, kPeleCells));
        modeled_s += t.total_seconds;
        model_sum.hbm_seconds += t.hbm_seconds;
        model_sum.slm_seconds += t.slm_seconds;
        model_sum.flop_seconds += t.flop_seconds;
        model_sum.launch_seconds += t.launch_seconds;
        occupancy_sum += t.occupancy;
        kinds.push_back({p.mech.name, res.stats.total_iterations,
                         static_cast<double>(kPeleCells),
                         static_cast<double>(res.stats.group_barriers)});
    }

    const double phase_s = a.trace ? a.seconds / 2.0 : a.seconds;
    std::int64_t call_id = 0;
    const pele_phase plain =
        run_pele_phase(*q, in, opts, phase_s, out, nullptr, call_id);

    // One rotation's systems over the sum of each mechanism's median call
    // time: medians keep calls that a host preemption stretched out of
    // the figure.
    double rotation_s = 0.0;
    for (const std::vector<double>& ms : plain.mech_ms) {
        rotation_s += perfbench::median(ms) / 1e3;
    }
    out.e2e.add("solves_per_s", "1/s",
                static_cast<double>(kPeleCells) *
                    static_cast<double>(in.size()) / rotation_s);
    out.e2e.add("latency_p50_ms", "ms", perfbench::median(plain.call_ms));
    out.e2e.add("modeled_us_per_system", "us", modeled_s / systems * 1e6);
    out.e2e.add("setup_s", "s", perfbench::median(setup_s));

    if (!a.trace) {
        return out;
    }
    const pele_phase traced =
        run_pele_phase(*q, in, opts, phase_s, out, &tr, call_id);

    report& r = out.layer;
    const double warm0 = perfbench::median(plain.mech_ms[0]);
    r.add("setup.generate_ms", "ms", perfbench::median(gen_ms));
    r.add("setup.first_call_ms", "ms", perfbench::median(first_ms));
    r.add("setup.cold_warm_ratio", "1",
          warm0 > 0 ? perfbench::median(first_ms) / warm0 : 0.0);
    const double calls = static_cast<double>(in.size());
    r.add("xpu.launches_per_call", "launch",
          static_cast<double>(totals.kernel_launches) / calls);
    r.add("xpu.groups_per_call", "group",
          static_cast<double>(totals.groups_launched) / calls);
    r.add("xpu.launch_wall_us_p50", "us",
          perfbench::median(traced.launch_wall_us));
    r.add("xpu.team_threads", "thread", omp_get_max_threads());
    add_zero(r, {{"xpu.graph.recorded", "count"},
                 {"xpu.graph.replay_frac", "1"},
                 {"xpu.graph.rebind_frac", "1"}});
    add_kernel_metrics(r, totals, systems);
    add_solver_kind_metrics(r, all_solver_kinds(), kinds);
    for (std::size_t m = 0; m < in.size(); ++m) {
        r.add("solver.wall_us_per_system." + in[m].mech.name, "us",
              perfbench::median(traced.mech_ms[m]) * 1e3 / kPeleCells);
    }
    r.add("solver.true_resid_max", "1", worst_resid);
    add_zero(r, {{"solver.refine_sweeps_mean", "sweep"},
                 {"solver.refine_fallbacks", "count"}});
    r.add("perf.hbm_us", "us", model_sum.hbm_seconds / systems * 1e6);
    r.add("perf.slm_us", "us", model_sum.slm_seconds / systems * 1e6);
    r.add("perf.flop_us", "us", model_sum.flop_seconds / systems * 1e6);
    r.add("perf.launch_us", "us", model_sum.launch_seconds / systems * 1e6);
    r.add("perf.occupancy", "1", occupancy_sum / calls);
    add_zero(r, {{"serve.submit_us_p50", "us"},
                 {"serve.queue_us_p50", "us"},
                 {"serve.solve_us_p50", "us"},
                 {"serve.reply_us_p50", "us"},
                 {"serve.batch_mean", "system"},
                 {"serve.batch_fill", "1"},
                 {"serve.batches_per_s", "1/s"},
                 {"serve.latency_p99_ms", "ms"},
                 {"serve.latency_samples", "count"},
                 {"serve.slo_miss_frac", "1"}});
    for (const std::string& k : serve_kind_names()) {
        r.add("serve.latency_p50_ms." + k, "ms", 0.0);
    }
    add_zero(r, {{"shard.routed_share_max", "1"},
                 {"shard.steals_per_1k", "1"},
                 {"shard.busy_imbalance", "1"},
                 {"gen.late_us_p99", "us"}});
    r.add("gen.threads", "thread", 1);
    const double p50_plain = perfbench::median(plain.call_ms);
    r.add("trace.overhead_frac", "1",
          perfbench::median(traced.call_ms) / p50_plain - 1.0);
    // Self times of a call's spans add up to the call's duration; the
    // ratio checks the span tree (children inside parents, no overlap).
    const auto self = tr.self_times();
    double self_sum = 0.0;
    double call_sum = 0.0;
    for (const char* n : {"call", "solve", "launch", "check"}) {
        const auto it = self.find(n);
        if (it != self.end()) {
            self_sum += it->second.total_us;
        }
    }
    for (const perfbench::span& s : tr.spans()) {
        if (std::strcmp(s.name, "call") == 0) {
            call_sum += s.end_us - s.start_us;
        }
    }
    r.add("trace.accounted_frac", "1", call_sum > 0 ? self_sum / call_sum : 0);
    add_self_times(r, tr);
    return out;
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------
//
// Why: the serve and shard layers under heterogeneous traffic — many
// coalescing keys (34), multi-system requests, iterative refinement, graph
// records and rebinds across many (key, fused size) shapes, and routing and
// stealing across two shards — while pele_newton runs none of them. The
// user-facing number is queueing latency under a fixed open-loop arrival
// rate, not throughput: a serve-path change shows here and must not move
// pele_newton. Two PVC-1S shards with one worker each in graph_replay
// mode.
//
// Open-loop harvest bias: solve_ticket has only a blocking get(), so the
// collector harvests in FIFO order and a request that finishes before an
// older one is timed late. latency_p50_ms, serve.latency_p50_ms.<kind>
// and serve.latency_p99_ms carry that bias; the per-stage times
// (serve.queue_us_p50, serve.solve_us_p50) come from the reply fields and
// do not.

/// Offered load: a constant of the benchmark, never calibrated per run,
/// chosen well below saturation (the two workers are idle most of the
/// time at this rate), so the latency measures the serve path, not a
/// growing queue.
constexpr double kMixedRate = 5000.0;
constexpr index_type kMixedMaxBatch = 32;
constexpr int kMixedTemplatesPerKind = 16;
/// Latency limit of serve.slo_miss_frac (failures count as misses).
constexpr double kMixedSloMs = 2.0;
/// The generator spins only this long before each due time (with a 1 ns
/// timer slack, a sleep overshoots by a few tens of microseconds).
constexpr double kSpinUs = 40.0;

/// serve_mixed's service configuration with every field spelled out: two
/// explicit PVC-1S shards (their modeled launch costs are charged as wall
/// time), one worker each.
serve::service_config make_service_config()
{
    serve::service_config c;
    c.workers = 1;  // per shard; each worker runs a 1-thread OpenMP team
    c.shards = 2;
    c.shard_devices = {"pvc1s", "pvc1s"};
    c.work_stealing = true;
    c.steal_threshold = 0;
    c.shard_faults = {};
    c.max_batch = kMixedMaxBatch;
    // The batching window. A leader holds it open for its own key even
    // while other keys queue behind it, so under serve_mixed's 34 keys a
    // 200 us window capped a backlogged shard near its arrival rate and a
    // single host stall left the service overloaded for the rest of the
    // run. At 50 us a backlog drains in a few milliseconds.
    c.max_wait = std::chrono::microseconds{50};
    c.idle_flush = std::chrono::microseconds{25};
    // 64 graph cache slots per worker: every (key, fused size) shape still
    // records on first use and when a stall reshapes the batches, but the
    // steady state replays. With the library default of 8 slots, a host
    // stall that grew the batches set off a record storm that kept the
    // service overloaded for the rest of the run (p50 0.14 ms -> 2-3 ms in
    // about a third of 20 s runs on a 4-core VM).
    c.graph_cache_entries = 64;
    c.max_queue_systems = 1 << 16;
    c.on_full = serve::overflow_policy::reject;
    c.skip_spill_zeroing = true;
    c.latency_window = 8192;
    c.launch_retries = 2;
    c.retry_backoff = std::chrono::microseconds{50};
    c.max_retry_backoff = std::chrono::microseconds{1000};
    c.breaker_fault_ratio = 0.5;
    c.breaker_window = 16;
    c.breaker_cooldown = 32;
    c.failover = false;
    c.evict_after_exhausted = 1;
    c.watchdog_interval = std::chrono::microseconds{0};
    c.hang_timeout = std::chrono::microseconds{20'000};
    c.probe_interval = std::chrono::microseconds{1'000};
    c.max_migrations = 0;
    c.shed_watermark = 1.0;
    c.brownout = false;
    c.brownout_low = 0.50;
    c.brownout_mid = 0.75;
    c.brownout_high = 0.90;
    return c;
}

// ---------------------------------------------------------------------
// Serve workloads: request kinds, reference solves, per-request records
// ---------------------------------------------------------------------

struct request_kind {
    std::string name;
    double weight = 1.0;
    solver::solve_options opts;
    /// Builds one template's matrix batch and right-hand sides.
    std::function<std::pair<mat::batch_csr<double>,
                            mat::batch_dense<double>>(std::uint64_t)>
        make;
};

/// One pre-generated request payload and its verified solo solution.
struct request_template {
    std::size_t kind = 0;
    solver::batch_matrix<double> a;
    mat::batch_dense<double> b;
    mat::batch_dense<double> want_x;
    index_type items = 0;
    index_type rows = 0;
};

struct serve_pool {
    std::vector<request_kind> kinds;
    std::vector<request_template> templates;
    std::vector<std::vector<std::size_t>> by_kind;
    std::vector<kind_counters> counters;  // per kind, from solo solves
    xpu::counters totals;
    double systems = 0.0;
    double worst_resid = 0.0;
    std::uint64_t bad_systems = 0;
};

/// Generates `per_kind` templates of every kind and solves each solo on
/// a fresh queue through the same solve path the service uses (plain fused
/// solve, or solver::solve_refined when refine_sweeps > 0). The solo
/// solutions are the bit-identity oracle for every reply.
serve_pool make_pool(std::vector<request_kind> kinds, int per_kind,
                     std::uint64_t seed, double& gen_ms)
{
    serve_pool pool;
    pool.kinds = std::move(kinds);
    pool.by_kind.resize(pool.kinds.size());
    const double t0 = now_us();
    std::uint64_t salt = 100;
    for (std::size_t k = 0; k < pool.kinds.size(); ++k) {
        for (int i = 0; i < per_kind; ++i) {
            auto [csr, b] = pool.kinds[k].make(mix_seed(seed, ++salt));
            request_template t;
            t.kind = k;
            t.items = csr.num_batch_items();
            t.rows = csr.rows();
            t.a = std::move(csr);
            t.b = std::move(b);
            pool.by_kind[k].push_back(pool.templates.size());
            pool.templates.push_back(std::move(t));
        }
    }
    gen_ms = (now_us() - t0) / 1e3;
    pool.counters.resize(pool.kinds.size());
    for (std::size_t k = 0; k < pool.kinds.size(); ++k) {
        pool.counters[k].name = pool.kinds[k].name;
    }
    for (request_template& t : pool.templates) {
        const solver::solve_options& opts = pool.kinds[t.kind].opts;
        xpu::queue q(pvc_policy(xpu::launch_mode::direct));
        mat::batch_dense<double> x(t.items, t.rows, 1);
        xpu::counters stats;
        double iterations = 0.0;
        std::vector<bool> ok(static_cast<std::size_t>(t.items));
        std::vector<double> rel;
        if (opts.refine_sweeps > 0) {
            solver::refine_options ro;
            ro.max_sweeps = opts.refine_sweeps;
            const solver::refined_result rr =
                solver::solve_refined(q, t.a, t.b, x, opts, ro);
            stats = rr.stats;
            rel = rr.true_residuals;
            for (index_type i = 0; i < t.items; ++i) {
                iterations += rr.log.iterations(i);
                // Refinement judges convergence on the true residual, so
                // a refined reply must meet rtol itself.
                ok[static_cast<std::size_t>(i)] =
                    rr.log.converged(i) &&
                    rel[static_cast<std::size_t>(i)] <=
                        opts.criterion.tolerance;
            }
        } else {
            const solver::solve_result res =
                solver::solve(q, t.a, t.b, x, opts);
            stats = res.stats;
            rel = solver::relative_residual_norms(t.a, t.b, x);
            for (index_type i = 0; i < t.items; ++i) {
                iterations += res.log.iterations(i);
                ok[static_cast<std::size_t>(i)] =
                    res.log.converged(i) &&
                    rel[static_cast<std::size_t>(i)] <=
                        kResidualMargin * opts.criterion.tolerance;
            }
        }
        for (index_type i = 0; i < t.items; ++i) {
            pool.worst_resid =
                std::max(pool.worst_resid, rel[static_cast<std::size_t>(i)]);
            if (!ok[static_cast<std::size_t>(i)]) {
                ++pool.bad_systems;
            }
        }
        t.want_x = std::move(x);
        kind_counters& kc = pool.counters[t.kind];
        kc.iterations += iterations;
        kc.systems += t.items;
        kc.barriers += static_cast<double>(stats.group_barriers);
        pool.totals += stats;
        pool.systems += t.items;
    }
    return pool;
}

serve::solve_request<double> make_request(const serve_pool& pool,
                                          std::size_t tmpl)
{
    const request_template& t = pool.templates[tmpl];
    serve::solve_request<double> req;
    req.a = t.a;
    req.b = t.b;
    req.x = mat::batch_dense<double>(t.items, t.rows, 1);
    req.opts = pool.kinds[t.kind].opts;
    return req;
}

/// Timestamps (us since run epoch) and reply fields of one request.
struct request_record {
    std::size_t tmpl = 0;
    double due_us = 0.0;       // open loop: schedule; closed: = submit_us
    double submit_us = 0.0;    // submit() entered
    double submitted_us = 0.0; // submit() returned
    double get_us = 0.0;       // get() entered
    double done_us = 0.0;      // get() returned
    double queue_s = 0.0;
    double solve_s = 0.0;
    index_type systems = 0;
    bool ok = false;
};

/// Gate of one reply against its template's solo solution; returns the
/// number of failed systems (non-ok reply, unconverged, or not
/// bit-identical).
index_type reply_gate(const serve_pool& pool, std::size_t tmpl,
                      const serve::solve_reply<double>& reply)
{
    const request_template& t = pool.templates[tmpl];
    if (reply.status != serve::request_status::ok ||
        reply.log.num_systems() != t.items) {
        return t.items;
    }
    index_type bad = count_mismatches(reply.x, t.want_x, t.items);
    bad = std::max(bad, t.items - reply.log.num_converged());
    return bad;
}

/// Records one request's spans. The request span runs from its due time
/// to the return of get(); `gen` is the generator's lateness. `queue`
/// and `solve` are rebuilt from the reply fields and laid after submit
/// returned; `get` covers the part of the get() call after the solve
/// ended (before that, the caller's wait overlaps queue/solve, which
/// already account for it). Whatever no child covers — the gap between
/// solve end and the collector reaching this ticket — is the request's
/// self time: the harvest lag of the FIFO collector.
void trace_request(tracer& tr, const request_record& rec, std::int64_t id)
{
    const std::int64_t root =
        tr.add("request", rec.due_us, rec.done_us, -1, id);
    tr.add("gen", rec.due_us, rec.submit_us, root, id);
    tr.add("submit", rec.submit_us, rec.submitted_us, root, id);
    const double q_end = rec.submitted_us + rec.queue_s * 1e6;
    const double s_end = q_end + rec.solve_s * 1e6;
    tr.add("queue", rec.submitted_us, q_end, root, id);
    tr.add("solve", q_end, s_end, root, id);
    tr.add("get", std::max(rec.get_us, s_end), rec.done_us, root, id);
}

/// Statistics of one timed serve phase. Everything is fixed-size
/// (histograms, one counter per throughput window), so the benchmark's own
/// memory does not grow with the number of requests it measures.
struct serve_phase {
    double t_begin_us = 0.0;  // end of warm-up
    double t_end_us = 0.0;
    double window_us = 0.0;
    perfbench::histogram latency_us;  // due/submit -> get() returned
    perfbench::histogram submit_us, queue_us, solve_us, reply_us, late_us;
    std::vector<perfbench::histogram> kind_latency_us;
    std::vector<double> window_systems;  // ok systems per window
    std::uint64_t requests = 0;
    std::uint64_t slo_misses = 0;
    serve::service_stats before;
    serve::service_stats after;
    /// (modeled busy seconds, completed systems) totals every
    /// kSnapshotSeconds across the timed window.
    std::vector<std::pair<double, double>> snapshots;
    double next_snapshot_us = 0.0;

    serve_phase(double begin_us, double end_us, std::size_t kinds)
        : t_begin_us(begin_us),
          t_end_us(end_us),
          window_us(kWindowSeconds * 1e6),
          kind_latency_us(kinds),
          window_systems(
              static_cast<std::size_t>((end_us - begin_us) / window_us)),
          next_snapshot_us(begin_us)
    {
    }

    /// Called by the generator between requests: takes the periodic
    /// statistics snapshots (the first is `before`, the one at or after
    /// the end of the timed window is `after`).
    void poll(serve::solve_service& svc, double now)
    {
        if (!finished() && now >= next_snapshot_us) {
            snapshot(svc);
            next_snapshot_us += kSnapshotSeconds * 1e6;
            if (now >= t_end_us) {
                done_ = true;
            }
        }
    }

    /// Takes the closing snapshot if poll() has not (open loop: after the
    /// last reply was harvested).
    void finish(serve::solve_service& svc)
    {
        if (!finished()) {
            snapshot(svc);
            done_ = true;
        }
    }

    bool finished() const { return done_; }

    /// Counts a completed request that was due inside the timed window.
    void record(const request_record& rec, std::size_t kind, double slo_ms)
    {
        const double lat = rec.done_us - rec.due_us;
        latency_us.add(lat);
        kind_latency_us[kind].add(lat);
        submit_us.add(rec.submitted_us - rec.submit_us);
        queue_us.add(rec.queue_s * 1e6);
        solve_us.add(rec.solve_s * 1e6);
        reply_us.add(rec.done_us - rec.submitted_us -
                     (rec.queue_s + rec.solve_s) * 1e6);
        late_us.add(rec.submit_us - rec.due_us);
        ++requests;
        if (!rec.ok || lat > slo_ms * 1e3) {
            ++slo_misses;
        }
    }

    /// Throughput bookkeeping: ok systems by completion time.
    void complete(const request_record& rec)
    {
        const double w = (rec.done_us - t_begin_us) / window_us;
        if (rec.ok && w >= 0.0 &&
            w < static_cast<double>(window_systems.size())) {
            window_systems[static_cast<std::size_t>(w)] +=
                static_cast<double>(rec.systems);
        }
    }

    /// Median over windows of ok systems per second.
    double solves_per_s() const
    {
        std::vector<double> rates = window_systems;
        for (double& v : rates) {
            v /= window_us / 1e6;
        }
        return perfbench::median(rates);
    }

    /// Median over snapshot windows of modeled busy time per completed
    /// system (Σ shard modeled_busy_seconds / completed systems).
    double modeled_us_per_system() const
    {
        std::vector<double> per;
        for (std::size_t i = 1; i < snapshots.size(); ++i) {
            const double systems =
                snapshots[i].second - snapshots[i - 1].second;
            if (systems > 0) {
                per.push_back((snapshots[i].first - snapshots[i - 1].first) /
                              systems * 1e6);
            }
        }
        return perfbench::median(per);
    }

private:
    void snapshot(serve::solve_service& svc)
    {
        const serve::service_stats st = svc.stats();
        if (snapshots.empty()) {
            before = st;
        }
        after = st;
        double busy = 0.0;
        for (const serve::shard_stats& sh : st.shards) {
            busy += sh.modeled_busy_seconds;
        }
        snapshots.push_back(
            {busy, static_cast<double>(st.completed_systems)});
    }

    bool done_ = false;
};

void add_serve_layers(report& r, const serve_pool& pool,
                      const serve_phase& ph, const serve_phase& plain,
                      const tracer& tr,
                      const std::vector<double>& gen_ms,
                      const std::vector<double>& first_ms)
{
    const double elapsed_s = (ph.t_end_us - ph.t_begin_us) / 1e6;
    const serve::service_stats& s0 = ph.before;
    const serve::service_stats& s1 = ph.after;
    const double batches =
        static_cast<double>(s1.batches_launched - s0.batches_launched);
    const double systems =
        static_cast<double>(s1.completed_systems - s0.completed_systems);
    const double requests = static_cast<double>(
        s1.completed_requests - s0.completed_requests);

    const double p50_plain_ms = plain.latency_us.quantile(0.5) / 1e3;
    r.add("setup.generate_ms", "ms", perfbench::median(gen_ms));
    r.add("setup.first_call_ms", "ms", perfbench::median(first_ms));
    r.add("setup.cold_warm_ratio", "1",
          p50_plain_ms > 0 ? perfbench::median(first_ms) / p50_plain_ms
                           : 0.0);
    r.add("xpu.launches_per_call", "launch",
          requests > 0 ? batches / requests : 0.0);
    r.add("xpu.groups_per_call", "group",
          requests > 0 ? systems / requests : 0.0);
    r.add("xpu.launch_wall_us_p50", "us", 0.0);
    r.add("xpu.team_threads", "thread", omp_get_max_threads());
    r.add("xpu.graph.recorded", "count",
          static_cast<double>(s1.launches_recorded - s0.launches_recorded));
    r.add("xpu.graph.replay_frac", "1",
          batches > 0
              ? static_cast<double>(s1.replays - s0.replays) / batches
              : 0.0);
    r.add("xpu.graph.rebind_frac", "1",
          batches > 0 ? static_cast<double>(s1.rebind_only -
                                            s0.rebind_only) /
                            batches
                      : 0.0);
    add_kernel_metrics(r, pool.totals, pool.systems);
    add_solver_kind_metrics(r, all_solver_kinds(), pool.counters);
    for (const std::string& m : pele_mech_names()) {
        r.add("solver.wall_us_per_system." + m, "us", 0.0);
    }
    r.add("solver.true_resid_max", "1", pool.worst_resid);
    const double refined =
        static_cast<double>(s1.refined_batches - s0.refined_batches);
    r.add("solver.refine_sweeps_mean", "sweep",
          refined > 0 ? static_cast<double>(s1.refine_sweeps -
                                            s0.refine_sweeps) /
                            refined
                      : 0.0);
    r.add("solver.refine_fallbacks", "count",
          static_cast<double>(s1.refine_fallbacks - s0.refine_fallbacks));
    add_zero(r, {{"perf.hbm_us", "us"},
                 {"perf.slm_us", "us"},
                 {"perf.flop_us", "us"},
                 {"perf.launch_us", "us"},
                 {"perf.occupancy", "1"}});
    r.add("serve.submit_us_p50", "us", ph.submit_us.quantile(0.5));
    r.add("serve.queue_us_p50", "us", ph.queue_us.quantile(0.5));
    r.add("serve.solve_us_p50", "us", ph.solve_us.quantile(0.5));
    r.add("serve.reply_us_p50", "us", ph.reply_us.quantile(0.5));
    const double batch_mean = batches > 0 ? systems / batches : 0.0;
    r.add("serve.batch_mean", "system", batch_mean);
    r.add("serve.batch_fill", "1",
          batch_mean / static_cast<double>(kMixedMaxBatch));
    r.add("serve.batches_per_s", "1/s", batches / elapsed_s);
    r.add("serve.latency_p99_ms", "ms", ph.latency_us.quantile(0.99) / 1e3);
    r.add("serve.latency_samples", "count",
          static_cast<double>(ph.latency_us.count()));
    r.add("serve.slo_miss_frac", "1",
          ph.requests ? static_cast<double>(ph.slo_misses) /
                            static_cast<double>(ph.requests)
                      : 0.0);
    for (const std::string& k : serve_kind_names()) {
        double v = 0.0;
        for (std::size_t i = 0; i < pool.kinds.size(); ++i) {
            if (pool.kinds[i].name == k) {
                v = ph.kind_latency_us[i].quantile(0.5) / 1e3;
            }
        }
        r.add("serve.latency_p50_ms." + k, "ms", v);
    }
    double routed_total = 0.0;
    double routed_max = 0.0;
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (std::size_t i = 0; i < s1.shards.size(); ++i) {
        const double routed = static_cast<double>(
            s1.shards[i].routed_requests - s0.shards[i].routed_requests);
        routed_total += routed;
        routed_max = std::max(routed_max, routed);
        const double busy = s1.shards[i].modeled_busy_seconds -
                            s0.shards[i].modeled_busy_seconds;
        busy_sum += busy;
        busy_max = std::max(busy_max, busy);
    }
    const double shards = static_cast<double>(s1.shards.size());
    r.add("shard.routed_share_max", "1",
          routed_total > 0 ? routed_max / routed_total : 0.0);
    r.add("shard.steals_per_1k", "1",
          requests > 0 ? static_cast<double>(s1.steals - s0.steals) /
                             requests * 1e3
                       : 0.0);
    r.add("shard.busy_imbalance", "1",
          busy_sum > 0 ? busy_max / (busy_sum / shards) : 0.0);
    r.add("gen.late_us_p99", "us",
          ph.late_us.quantile(0.99));
    // Generator and FIFO collector.
    r.add("gen.threads", "thread", 2);
    r.add("trace.overhead_frac", "1",
          p50_plain_ms > 0
              ? ph.latency_us.quantile(0.5) / 1e3 / p50_plain_ms - 1.0
              : 0.0);
    // Per-stage self times plus the generator's own time against the
    // traced mean request latency (1.0 = fully accounted).
    const auto self = tr.self_times();
    double self_sum = 0.0;
    for (const char* n : {"request", "gen", "submit", "queue", "solve",
                          "get"}) {
        const auto it = self.find(n);
        if (it != self.end()) {
            self_sum += it->second.total_us;
        }
    }
    double req_sum = 0.0;
    for (const perfbench::span& s : tr.spans()) {
        if (std::strcmp(s.name, "request") == 0) {
            req_sum += s.end_us - s.start_us;
        }
    }
    r.add("trace.accounted_frac", "1", req_sum > 0 ? self_sum / req_sum : 0);
    add_self_times(r, tr);
}

/// End-to-end metrics of a serve phase.
void add_serve_e2e(report& r, const serve_phase& ph,
                   const std::vector<double>& setup_s)
{
    r.add("solves_per_s", "1/s", ph.solves_per_s());
    r.add("latency_p50_ms", "ms", ph.latency_us.quantile(0.5) / 1e3);
    r.add("modeled_us_per_system", "us", ph.modeled_us_per_system());
    r.add("setup_s", "s", perfbench::median(setup_s));
}

/// Gates a harvested reply and books it into the phase (and the trace).
void harvest(serve_phase& ph, const serve_pool& pool, request_record& rec,
             const serve::solve_reply<double>& reply, double slo_ms,
             outcome& out, tracer* tr, std::int64_t& req_id)
{
    rec.queue_s = reply.queue_seconds;
    rec.solve_s = reply.solve_seconds;
    rec.systems = pool.templates[rec.tmpl].items;
    const index_type bad = reply_gate(pool, rec.tmpl, reply);
    rec.ok = bad == 0;
    out.attempted += static_cast<std::uint64_t>(rec.systems);
    if (bad > 0) {
        out.fail(static_cast<std::uint64_t>(bad),
                 "serve_mixed: reply failed the gate");
    }
    ph.complete(rec);
    if (rec.due_us >= ph.t_begin_us && rec.due_us < ph.t_end_us) {
        ph.record(rec, pool.templates[rec.tmpl].kind, slo_ms);
        if (tr != nullptr && tr->has_room(6)) {
            trace_request(*tr, rec, req_id++);
        }
    }
}

/// The weights put the overall latency median inside one kind's bulk
/// (gmres32 spans the 35th to 75th percentile, between the faster cg8 and
/// the slower multi-system kinds), not on the gap between two kinds,
/// where it would jump between them from run to run.
std::vector<request_kind> mixed_kinds()
{
    std::vector<request_kind> ks;
    request_kind cg;  // 8-row SPD stencil, CG
    cg.name = "cg8";
    cg.weight = 0.35;
    cg.opts = make_opts(solver::solver_type::cg, 1e-6, 100);
    cg.make = [](std::uint64_t s) {
        return std::make_pair(work::stencil_3pt<double>(1, 8, s),
                              work::random_rhs<double>(1, 8, s + 1));
    };
    ks.push_back(std::move(cg));

    request_kind drm;  // 8 drm19 cells per request, BiCGSTAB
    drm.name = "drm19x8";
    drm.weight = 0.20;
    drm.opts = make_opts(solver::solver_type::bicgstab, 1e-8, 300);
    drm.make = [](std::uint64_t s) {
        const work::mechanism m = work::mechanism_by_name("drm19");
        return std::make_pair(work::generate_mechanism_batch<double>(m, 8, s),
                              work::mechanism_rhs<double>(8, m.rows, s + 1));
    };
    ks.push_back(std::move(drm));

    request_kind gm;  // 32-row stencil, restarted GMRES
    gm.name = "gmres32";
    gm.weight = 0.40;
    gm.opts = make_opts(solver::solver_type::gmres, 1e-6, 300);
    gm.opts.gmres_restart = 16;
    gm.make = [](std::uint64_t s) {
        return std::make_pair(work::stencil_3pt<double>(1, 32, s),
                              work::random_rhs<double>(1, 32, s + 1));
    };
    ks.push_back(std::move(gm));

    request_kind gr;  // 4 gri30 cells, fp32 storage + refinement
    gr.name = "gri30x4r";
    gr.weight = 0.05;
    gr.opts = make_opts(solver::solver_type::bicgstab, 1e-9, 300);
    gr.opts.storage = mat::storage_precision::fp32;
    gr.opts.refine_sweeps = 3;
    gr.make = [](std::uint64_t s) {
        const work::mechanism m = work::mechanism_by_name("gri30");
        return std::make_pair(work::generate_mechanism_batch<double>(m, 4, s),
                              work::mechanism_rhs<double>(4, m.rows, s + 1));
    };
    ks.push_back(std::move(gr));
    return ks;
}

/// Request sequence drawn from the seed: kind by weight, template uniform
/// within the kind.
std::vector<std::size_t> mixed_sequence(const serve_pool& pool,
                                        std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 gen(mix_seed(seed, 7));
    std::vector<double> w;
    for (const request_kind& k : pool.kinds) {
        w.push_back(k.weight);
    }
    std::discrete_distribution<std::size_t> pick_kind(w.begin(), w.end());
    std::vector<std::size_t> seq(n);
    for (std::size_t& t : seq) {
        const auto& members = pool.by_kind[pick_kind(gen)];
        t = members[std::uniform_int_distribution<std::size_t>(
            0, members.size() - 1)(gen)];
    }
    return seq;
}

/// Repeated serve setup: template generation + solo reference solves,
/// service construction, and the first request up to its verified reply.
struct serve_setup {
    serve_pool pool;
    std::unique_ptr<serve::solve_service> service;
    std::vector<double> setup_s, gen_ms, first_ms;
};

serve_setup setup_serve(std::uint64_t seed, outcome& out, tracer& tr)
{
    serve_setup s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.service.reset();
        const double t0 = now_us();
        double gen_ms = 0.0;
        s.pool = make_pool(mixed_kinds(), kMixedTemplatesPerKind, seed,
                           gen_ms);
        s.service = std::make_unique<serve::solve_service>(
            pvc_policy(xpu::launch_mode::graph_replay),
            make_service_config());
        const double t1 = now_us();
        auto ticket = s.service->submit(make_request(s.pool, 0));
        const serve::solve_reply<double> reply = ticket.get();
        const double t2 = now_us();
        const index_type bad = reply_gate(s.pool, 0, reply);
        const double t3 = now_us();
        const auto items =
            static_cast<std::uint64_t>(s.pool.templates[0].items);
        out.attempted += items;
        if (bad > 0) {
            out.fail(static_cast<std::uint64_t>(bad),
                     "setup: first reply failed the gate");
        }
        if (tr.on()) {
            tr.add("generate", t0, t0 + gen_ms * 1e3);
        }
        s.setup_s.push_back((t3 - t0) / 1e6);
        s.gen_ms.push_back(gen_ms);
        s.first_ms.push_back((t2 - t1) / 1e3);
    }
    if (s.pool.bad_systems > 0) {
        out.fail(s.pool.bad_systems,
                 "solo reference solves failed the gate");
    }
    return s;
}

serve_phase run_mixed_phase(serve::solve_service& svc, serve_setup& s,
                            double seconds, std::uint64_t seed,
                            outcome& out, tracer* tr, std::int64_t& req_id)
{
    const auto n = static_cast<std::size_t>(seconds * kMixedRate);
    const std::vector<std::size_t> seq = mixed_sequence(s.pool, n, seed);
    struct entry {
        serve::solve_service::ticket<double> ticket;
        request_record rec;
    };
    std::vector<entry> entries(n);
    std::atomic<std::size_t> published{0};
    const double t0 = now_us() + 1e3;
    const double interval_us = 1e6 / kMixedRate;
    serve_phase ph(t0 + kWarmupFrac * seconds * 1e6, t0 + seconds * 1e6,
                   s.pool.kinds.size());

    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    // Collector: harvests tickets in submission (FIFO) order.
    std::thread collector([&] {
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t seen = published.load(std::memory_order_acquire);
            while (seen <= i) {
                published.wait(seen, std::memory_order_acquire);
                seen = published.load(std::memory_order_acquire);
            }
            entry& e = entries[i];
            e.rec.get_us = now_us();
            const serve::solve_reply<double> reply = e.ticket.get();
            e.rec.done_us = now_us();
            harvest(ph, s.pool, e.rec, reply, kMixedSloMs, out, tr, req_id);
        }
    });

    for (std::size_t i = 0; i < n; ++i) {
        entry& e = entries[i];
        e.rec.tmpl = seq[i];
        // Build the payload before the due time: copying it is the
        // generator's cost, not the request's.
        serve::solve_request<double> req = make_request(s.pool, seq[i]);
        const double due = t0 + static_cast<double>(i) * interval_us;
        ph.poll(svc, now_us());
        // Sleep to just before the due time and spin the rest: the
        // generator stays mostly idle, so the service threads are not
        // competing with it for CPUs.
        double now = now_us();
        if (due - now > kSpinUs) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(due - now -
                                                          kSpinUs));
        }
        while ((now = now_us()) < due) {
        }
        e.rec.due_us = due;
        e.rec.submit_us = now;
        e.ticket = svc.submit(std::move(req));
        e.rec.submitted_us = now_us();
        published.store(i + 1, std::memory_order_release);
        published.notify_one();
    }
    collector.join();
    ph.finish(svc);
    return ph;
}

outcome run_serve_mixed(const args& a, tracer& tr)
{
    outcome out;
    serve_setup s = setup_serve(a.seed, out, tr);
    const double phase_s = a.trace ? a.seconds / 2.0 : a.seconds;
    std::int64_t req_id = 0;
    const serve_phase plain = run_mixed_phase(*s.service, s, phase_s, a.seed,
                                              out, nullptr, req_id);
    add_serve_e2e(out.e2e, plain, s.setup_s);
    if (a.trace) {
        const serve_phase traced = run_mixed_phase(
            *s.service, s, phase_s, a.seed, out, &tr, req_id);
        add_serve_layers(out.layer, s.pool, traced, plain, tr, s.gen_ms,
                         s.first_ms);
    }
    return out;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

int usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "pele_newton|serve_mixed --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH] [--team T]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv)
{
    args a;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string k = argv[i];
            const std::string v = argv[i + 1];
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                a.trace = v == "1";
            } else if (k == "--trace-file") {
                a.trace_file = v;
            } else if (k == "--team") {
                a.team = std::stoi(v);
            } else {
                return usage(("unknown flag " + k).c_str());
            }
        }
    } catch (const std::exception&) {
        return usage("malformed flag value");
    }
    if (argc % 2 == 0) {
        return usage("flags take one value each");
    }
    if (a.workload.empty() || !(a.seconds > 0.0)) {
        return usage("--workload and a positive --seconds are required");
    }
    for (const char* var : kForbiddenEnv) {
        if (const char* v = std::getenv(var); v != nullptr && *v != '\0') {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set: it "
                         "rewrites library defaults the benchmark pins\n",
                         var);
            return 2;
        }
    }
    // OpenMP reads OMP_NUM_THREADS per thread at start-up; only the
    // process environment reaches the serve workers' teams, so the
    // wrapper sets it and perfbench verifies it here.
    const bool serve = a.workload != "pele_newton";
    const int want_team = serve ? 1 : a.team;
    const int cpus = host_cpus();
    // serve_mixed: generator + collector + one worker per shard.
    const int threads = serve ? 2 + 2 * want_team : want_team;
    if (omp_get_max_threads() != want_team) {
        std::fprintf(stderr,
                     "perfbench: OMP_NUM_THREADS must be %d for %s "
                     "(OpenMP reports %d)\n",
                     want_team, a.workload.c_str(), omp_get_max_threads());
        return 2;
    }
    if (threads > cpus) {
        std::fprintf(stderr,
                     "perfbench: %s needs %d busy threads but only %d CPUs "
                     "are available\n",
                     a.workload.c_str(), threads, cpus);
        return 2;
    }

    tracer tr(a.trace, kMaxSpans);
    std::vector<double> ref_start;
    for (int i = 0; i < 3; ++i) {
        ref_start.push_back(reference_loop_ms());
    }
    outcome out;
    try {
        if (a.workload == "pele_newton") {
            out = run_pele(a, tr);
        } else if (a.workload == "serve_mixed") {
            out = run_serve_mixed(a, tr);
        } else {
            return usage(("unknown workload " + a.workload).c_str());
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     a.workload.c_str(), ex.what());
        return 1;
    }
    std::vector<double> ref_end;
    for (int i = 0; i < 3; ++i) {
        ref_end.push_back(reference_loop_ms());
    }

    out.e2e.add("peak_rss_mb", "MB", peak_rss_mb());
    const double failed_frac =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    out.e2e.add("failed_frac", "1", failed_frac);
    if (a.trace) {
        out.layer.add("failed_frac", "1", failed_frac);
        std::vector<double> all = ref_start;
        all.insert(all.end(), ref_end.begin(), ref_end.end());
        out.layer.add("host.ref_ms", "ms", perfbench::median(all));
        out.layer.add("host.ref_drift_frac", "1",
                      perfbench::median(ref_end) /
                              perfbench::median(ref_start) -
                          1.0);
        if (!a.trace_file.empty() && !tr.write(a.trace_file)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.trace_file.c_str());
            return 1;
        }
    }
    for (const std::string& f : out.failures) {
        std::fprintf(stderr, "perfbench: gate: %s\n", f.c_str());
    }
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf(
        "{\"info\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"nproc\": %d, \"team\": %d, \"omp_threads\": %d, "
        "\"busy_threads\": %d, \"build_type\": %s, \"compiler\": %s}, "
        "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"end_to_end\": %s, \"per_layer\": %s}\n",
        perfbench::json_string(a.workload).c_str(),
        static_cast<unsigned long long>(a.seed),
        perfbench::json_number(a.seconds).c_str(), a.trace ? 1 : 0, cpus,
        want_team, omp_get_max_threads(), threads,
        perfbench::json_string(PERFBENCH_BUILD_TYPE).c_str(),
        perfbench::json_string(__VERSION__).c_str(),
        correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed),
        out.e2e.to_json().c_str(), out.layer.to_json().c_str());
    return correct ? 0 : 1;
}
