// Deterministic device-fault injection.
//
// Real accelerator deployments fail in ways the simulator's happy path
// never exercises: kernel launches are rejected by the runtime, SLM
// allocation fails under occupancy pressure, and transient memory faults
// corrupt workspace mid-kernel. The portability literature (Reguly's SYCL
// study; Ginkgo's porting papers) shows such failure behaviour is backend
// dependent, so the recovery above (`solver::solve_coalesced`'s retries,
// `solver::solve_resilient`, serve's failover) must be provable against
// *scheduled* faults: a `fault_plan` on the `exec_policy` describes exactly
// which launch, which group, and which barrier phase gets hit, and the
// same plan replays the identical schedule on every run. An empty plan
// costs one branch per launch and nothing per work-item.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace batchlin::xpu {

/// Error reported by the simulated device runtime when an injected fault
/// (or a real launch-resource failure) aborts a kernel launch. Callers
/// that implement recovery (retry, fallback, degradation) catch exactly
/// this type; programming errors keep throwing the base `batchlin::error`
/// and are never retried.
class device_error : public error {
    using error::error;
};

/// What kind of fault an event injects.
enum class fault_kind {
    /// The launch itself fails: `run_batch` throws `device_error` before
    /// any group executes — the analogue of a queue-submission failure.
    launch_fail,
    /// The chosen group's Nth SLM-arena allocation throws `device_error`
    /// mid-kernel — the analogue of exceeding the SLM budget at runtime.
    alloc_fail,
    /// A workspace region of the chosen group is poisoned at a chosen
    /// barrier phase — the analogue of a transient device memory fault.
    poison,
    /// Sticky device loss: every launch in [`launch`, `revive`) throws
    /// `device_error` before any group executes (revive == 0 means the
    /// device never comes back). The analogue of a stack dropping off the
    /// bus: retries on the same queue keep failing until the device is
    /// revived, which is what forces the serve layer to fail over.
    device_lost,
    /// The launch wedges: `run_batch` blocks for `hang_us` microseconds
    /// and then throws `device_error`. The bounded sleep keeps test
    /// runtimes finite while still tripping any watchdog whose timeout is
    /// shorter than the hang.
    hang,
};

/// Which memory a `poison` event corrupts.
enum class fault_target {
    /// The group's live SLM arena allocations.
    slm,
    /// The group's spilled (global-memory) workspace slice; falls back to
    /// SLM when the kernel spilled nothing.
    spill,
};

/// How a `poison` event corrupts the chosen bytes.
enum class poison_mode {
    /// Overwrites 8 bytes with 0xFF — a NaN in both float and double.
    nan,
    /// Flips a single bit — silent corruption that stays finite.
    bitflip,
};

/// One scheduled fault. Events are matched by the queue's 0-based launch
/// counter (every `run_batch` call increments it, failed ones included),
/// so a schedule replays identically for the same call sequence.
struct fault_event {
    fault_kind kind = fault_kind::launch_fail;
    /// Launch index (0-based count of `run_batch` calls on the queue).
    std::uint64_t launch = 0;
    /// Global group id the fault targets (alloc_fail / poison).
    index_type group = 0;
    /// alloc_fail: 0-based index of the SLM allocation that throws.
    /// poison: 1-based barrier count after which the poison strikes.
    index_type phase = 1;
    fault_target target = fault_target::slm;
    poison_mode mode = poison_mode::nan;
    /// device_lost: first launch index at which the device works again
    /// (0 = lost forever). Probe launches advance the same counter, so a
    /// revival schedule composes with serve-side half-open probing.
    std::uint64_t revive = 0;
    /// hang: how long the wedged launch blocks before failing.
    std::uint32_t hang_us = 0;

    friend bool operator==(const fault_event&,
                           const fault_event&) = default;
};

/// A deterministic fault schedule. The seed feeds both the schedule
/// generator and the per-strike offset/bit selection, so one integer
/// reproduces the entire failure scenario.
struct fault_plan {
    unsigned seed = 0x5eedfa17u;
    std::vector<fault_event> events;

    bool empty() const { return events.empty(); }

    friend bool operator==(const fault_plan&, const fault_plan&) = default;
};

/// Knobs of the randomized schedule generator (see `random_fault_plan`).
struct fault_schedule_config {
    /// Launch indices [0, num_launches) the schedule may hit.
    std::uint64_t num_launches = 64;
    /// Groups [0, num_groups) a group-scoped fault may target.
    index_type num_groups = 16;
    /// Expected fraction of launches that receive a fault.
    double fault_rate = 0.25;
    /// Barrier phases [1, max_phase] a poison strike may choose.
    index_type max_phase = 24;
};

/// Draws a randomized-but-deterministic schedule over all fault classes:
/// the same seed always produces the same event list (the soak tests pin
/// this down), and distinct seeds decorrelate quickly.
fault_plan random_fault_plan(unsigned seed,
                             const fault_schedule_config& config);

/// Deterministic 64-bit mix used for strike offset/bit selection; exposed
/// so tests can predict where a poison lands.
std::uint64_t fault_mix(std::uint64_t a, std::uint64_t b);

std::string to_string(fault_kind kind);
std::string to_string(fault_target target);
std::string to_string(poison_mode mode);

}  // namespace batchlin::xpu
