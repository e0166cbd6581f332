// shard::registry — enumeration of the logical devices the serve layer
// shards across.
//
// The paper's scaling claim (§4.2, Fig. 5) is that batched solves extend
// near-linearly from one PVC stack to two and onward to multiple GPUs,
// because the batch partitions with no solver communication. To reproduce
// that shape end to end through `serve::solve_service`, devices must be
// first-class: this registry enumerates N logical shards — emulated
// devices on the host, each keyed to a `perfmodel::device_spec` entry
// (A100 / H100 / PVC-1S / PVC-2S) — and derives the per-shard execution
// policy and launch-cost emulation the serving lanes run under. It also
// owns one lazily-built standalone `xpu::queue` per shard for callers
// that drive devices directly (benches, tools) so there is exactly one
// device-enumeration path in the repo.
//
// Policy derivation rule: a shard's policy copies the base policy's
// kernel-behavior fields (programming model, sub-group sizes, reduction
// paths, stacks) verbatim — the device spec only contributes *cost*
// emulation (kernel_launch_us and the graph replay/record costs), and
// only for explicitly named devices. This is what keeps replies
// bit-identical no matter which shard a batch lands on: placement and
// stealing may move work freely without perturbing kernel numerics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "perfmodel/device_spec.hpp"
#include "xpu/policy.hpp"
#include "xpu/queue.hpp"

namespace batchlin::shard {

/// One logical device of the registry.
struct device_entry {
    /// Shard id: dense 0-based index, also the routing target.
    index_type id = 0;
    /// The performance-model device this shard emulates; drives the
    /// router's cost estimates and the per-shard stats labels.
    perf::device_spec spec;
    /// Execution policy the shard's queues are built from (base policy
    /// plus, for explicit devices, the spec's launch-cost emulation).
    xpu::exec_policy policy;
    /// Whether the device was named explicitly (CLI / config / env) as
    /// opposed to defaulted — only explicit devices charge the modeled
    /// launch costs as wall time.
    bool explicit_device = false;
};

/// Normalizes a user-supplied device name ("pvc1s", "PVC-1S", "pvc_1s",
/// "a100", ...) to the canonical `perfmodel` spelling; throws on unknown
/// devices.
std::string canonical_device_name(const std::string& name);

/// Splits a comma-separated device list ("pvc1s,pvc1s") into canonical
/// names; throws on unknown devices or an empty list.
std::vector<std::string> parse_device_list(const std::string& list);

/// The device registry. Build it with one of the factories; entries are
/// immutable afterwards.
class registry {
public:
    registry() = default;

    /// `count` identical shards of the named device. The base policy is
    /// used verbatim (no launch-cost emulation): uniform registries back
    /// the differential oracle's shard axis, where behavior must match
    /// the unsharded service exactly.
    static registry uniform(index_type count, const std::string& device_name,
                            const xpu::exec_policy& base);

    /// One shard per (canonical or shorthand) name, each charging its
    /// spec's kernel-launch / graph replay / graph record costs as
    /// emulated wall time on top of the base policy.
    static registry from_names(const std::vector<std::string>& names,
                               const xpu::exec_policy& base);

    index_type size() const
    {
        return static_cast<index_type>(entries_.size());
    }

    const device_entry& at(index_type shard) const;

    const std::vector<device_entry>& entries() const { return entries_; }

    /// The shard's standalone queue, built on first use from the entry's
    /// policy. For direct (non-serve) device use by benches and tools;
    /// the serve layer builds its own per-worker queues instead because
    /// `xpu::queue` is single-threaded by contract.
    xpu::queue& queue(index_type shard);

private:
    std::vector<device_entry> entries_;
    /// Lazily-populated standalone queues, index-aligned with entries_.
    std::vector<std::unique_ptr<xpu::queue>> queues_;
};

}  // namespace batchlin::shard
