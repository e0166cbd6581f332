// Execution policy: which programming model the kernels are compiled for.
//
// The paper ports the same solver kernels between two programming models:
//  * SYCL/DPC++ on Intel PVC — sub-group sizes 16 or 32, work-group-level
//    reduction primitives, SLM allocated from the L1 (§2.3, §3.2).
//  * CUDA on NVIDIA A100/H100 — warp size fixed at 32, only warp-level
//    reductions available (§3.2).
// exec_policy captures exactly those differences so the identical kernel
// source takes the model-appropriate paths, mirroring how the authors
// maintain one algorithm across backends.
#pragma once

#include <string>
#include <vector>

#include "util/math.hpp"
#include "xpu/fault.hpp"

namespace batchlin::xpu {

/// Programming model the kernels execute under.
enum class prog_model {
    sycl,
    cuda,
};

/// Runtime level of the opt-in kernel portability sanitizer (`xpu::check`).
/// Effective only in builds configured with -DBATCHLIN_XPU_CHECK=ON; all
/// other builds must leave the policy at `none` (run_batch rejects anything
/// else, so the knob can never silently no-op). Levels are cumulative.
enum class check_level {
    /// Checking off: the default, and the only level unchecked builds run.
    none,
    /// Shadow SLM: reads of uninitialized SLM/spill memory, span indexing
    /// out of bounds, use of an SLM allocation after `reset()`.
    shadow,
    /// + phase hazards: cross-lane write-write / read-write overlaps within
    /// one barrier phase, and uniformity of barriers and collectives.
    hazard,
    /// + lane-order adversary: the per-phase lane loops execute in the
    /// order selected by `exec_policy::lane_order`, so hidden lane-order
    /// dependences are falsified by comparing against an ascending run.
    adversary,
};

/// Order the checked mode executes each phase's lane loop in. On real
/// hardware the lanes of a work-group run concurrently in an arbitrary
/// interleaving; a portable kernel must produce bit-identical results for
/// every order. `shuffled` draws a deterministic per-group, per-phase
/// permutation from `exec_policy::lane_order_seed`.
enum class lane_order {
    ascending,
    reversed,
    shuffled,
};

/// How solver launches reach the device queue.
enum class launch_mode {
    /// Submit every launch eagerly — the classic per-batch `run_batch`.
    direct,
    /// Record the bound solver launch into an `xpu::command_graph` once,
    /// then replay the finalized graph per batch (SYCL
    /// `khr::command_graph`), paying `emulated_replay_us` instead of the
    /// full `emulated_launch_us` per submission. A device whose solver
    /// kernel stays resident (no host submission at all) is this mode
    /// with `emulated_replay_us = 0`.
    graph_replay,
};

/// Reduction strategy inside a work-group (paper §3.2 and §3.6).
enum class reduce_path {
    /// Whole-work-group reduction via the SYCL group primitive (SLM based).
    group,
    /// Sub-group (warp) shuffles, with a small SLM combine across sub-groups
    /// only when the work-group spans more than one sub-group.
    sub_group,
};

/// Describes the execution model the kernels are specialized for.
struct exec_policy {
    prog_model model = prog_model::sycl;
    /// Sub-group sizes the device supports (PVC: {16, 32}; CUDA: {32}).
    std::vector<index_type> allowed_sub_group_sizes{16, 32};
    /// Whether the programming model offers an efficient work-group-level
    /// reduction primitive (SYCL: yes; CUDA: no, §3.2).
    bool has_group_reduction = true;
    /// Number of GPU stacks the batch is spread across (PVC-2S: 2, §2.2).
    index_type num_stacks = 1;
    /// SLM budget one work-group may claim (bytes). The SLM planner fills
    /// this greedily by vector priority (§3.5).
    size_type slm_bytes_per_group = 128 * 1024;
    /// Rows at or below this threshold select sub-group size 16 (PVC only);
    /// larger matrices use 32. Determined experimentally per device (§3.6).
    index_type sub_group_switch_rows = 64;
    /// Rows at or below this threshold use the sub-group reduction path to
    /// avoid SLM round-trips; larger systems use the group path (§3.2).
    index_type sub_group_reduce_rows = 32;
    /// Maximum work-group size the device can schedule.
    index_type max_work_group_size = 1024;
    /// Wall-clock cost charged to every `run_batch`, emulating the fixed
    /// submission overhead of a real device queue (the `kernel_launch_us`
    /// of the analytic device model; 4-8 us on the paper's GPUs). The
    /// simulator's native launch path costs well under a microsecond, so
    /// without this knob host-side wall-clock studies under-state the
    /// per-launch cost that batching amortizes (§3.4). Zero (the default)
    /// disables emulation; figure benches and tests run with zero.
    double emulated_launch_us = 0.0;
    /// Wall-clock cost charged to replaying a finalized command graph.
    /// Replay skips the runtime's argument marshalling and JIT checks, so
    /// it is far below `emulated_launch_us` (~1 us on PVC vs. 8 us for an
    /// eager submit). Zero (the default) disables emulation.
    double emulated_replay_us = 0.0;
    /// One-time wall-clock cost of recording + finalizing a command graph
    /// (charged once per `command_graph::finalize`, not per replay).
    double emulated_record_us = 0.0;
    /// How solver launches reach the device queue (see `launch_mode`).
    /// `direct` is always available; `graph_replay` is honored by layers
    /// that know how to record a solve (serve::, through the coalesced
    /// solve path) and falls back to `direct` elsewhere.
    batchlin::xpu::launch_mode launch_mode = batchlin::xpu::launch_mode::direct;
    /// Sanitizer level kernels launched through this policy run at. Any
    /// value other than `none` requires a BATCHLIN_XPU_CHECK=ON build;
    /// unchecked builds reject it at launch instead of silently ignoring it.
    batchlin::xpu::check_level check_level = batchlin::xpu::check_level::none;
    /// Lane execution order applied at `check_level::adversary`.
    batchlin::xpu::lane_order lane_order = batchlin::xpu::lane_order::ascending;
    /// Seed for `lane_order::shuffled`; mixed with group id and phase index
    /// so every phase of every group draws a distinct permutation while the
    /// whole run stays reproducible.
    unsigned lane_order_seed = 0x9e3779b9u;
    /// Deterministic fault-injection schedule (empty: no faults, and the
    /// queue pays exactly one empty() branch per launch). Events are keyed
    /// by the queue's 0-based launch counter; see xpu/fault.hpp.
    fault_plan faults{};

    /// True when `size` is one of the supported sub-group sizes.
    bool supports_sub_group(index_type size) const;
};

/// Policy matching the paper's SYCL configuration on one or two PVC stacks.
exec_policy make_sycl_policy(index_type num_stacks = 1,
                             size_type slm_bytes_per_group = 128 * 1024);

/// Policy matching the paper's CUDA configuration (A100/H100).
exec_policy make_cuda_policy(size_type slm_bytes_per_group);

/// Human-readable model name for logs and benchmark tables.
std::string to_string(prog_model model);
std::string to_string(reduce_path path);
std::string to_string(check_level level);
std::string to_string(lane_order order);
std::string to_string(launch_mode mode);

/// Parses "direct" / "graph_replay" (as printed by
/// `to_string(launch_mode)`); throws on anything else. Used by the
/// `batchsolve --launch-mode` flag.
launch_mode parse_launch_mode(const std::string& name);

}  // namespace batchlin::xpu
