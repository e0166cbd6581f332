#include "shard/registry.hpp"

#include <cctype>

#include "util/error.hpp"

namespace batchlin::shard {

namespace {

/// Lowercases and strips separators so "PVC-1S", "pvc_1s" and "pvc1s"
/// all compare equal.
std::string fold_name(const std::string& name)
{
    std::string folded;
    folded.reserve(name.size());
    for (const char c : name) {
        if (c == '-' || c == '_' || c == ' ') {
            continue;
        }
        folded.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    return folded;
}

}  // namespace

std::string canonical_device_name(const std::string& name)
{
    const std::string folded = fold_name(name);
    if (folded == "a100") {
        return "A100";
    }
    if (folded == "h100") {
        return "H100";
    }
    if (folded == "pvc1s") {
        return "PVC-1S";
    }
    if (folded == "pvc2s") {
        return "PVC-2S";
    }
    BATCHLIN_ENSURE_MSG(false, "unknown shard device: '" + name +
                                   "' (expected a100|h100|pvc1s|pvc2s)");
    return {};
}

std::vector<std::string> parse_device_list(const std::string& list)
{
    std::vector<std::string> names;
    std::string token;
    for (const char c : list) {
        if (c == ',') {
            if (!token.empty()) {
                names.push_back(canonical_device_name(token));
                token.clear();
            }
            continue;
        }
        token.push_back(c);
    }
    if (!token.empty()) {
        names.push_back(canonical_device_name(token));
    }
    BATCHLIN_ENSURE_MSG(!names.empty(),
                        "empty shard device list: '" + list + "'");
    return names;
}

registry registry::uniform(index_type count, const std::string& device_name,
                           const xpu::exec_policy& base)
{
    BATCHLIN_ENSURE_MSG(count > 0, "registry needs at least one shard");
    registry reg;
    const perf::device_spec spec =
        perf::device_by_name(canonical_device_name(device_name));
    reg.entries_.reserve(static_cast<std::size_t>(count));
    for (index_type i = 0; i < count; ++i) {
        device_entry e;
        e.id = i;
        e.spec = spec;
        e.policy = base;
        e.explicit_device = false;
        reg.entries_.push_back(std::move(e));
    }
    reg.queues_.resize(static_cast<std::size_t>(count));
    return reg;
}

registry registry::from_names(const std::vector<std::string>& names,
                              const xpu::exec_policy& base)
{
    BATCHLIN_ENSURE_MSG(!names.empty(),
                        "registry needs at least one shard device");
    registry reg;
    reg.entries_.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        device_entry e;
        e.id = static_cast<index_type>(i);
        e.spec = perf::device_by_name(canonical_device_name(names[i]));
        // Kernel behavior stays the base policy's (bit-identity across
        // placements); the spec contributes launch-cost emulation only.
        e.policy = base;
        e.policy.emulated_launch_us = e.spec.kernel_launch_us;
        e.policy.emulated_replay_us = e.spec.graph_replay_us;
        e.policy.emulated_record_us = e.spec.graph_finalize_us;
        e.explicit_device = true;
        reg.entries_.push_back(std::move(e));
    }
    reg.queues_.resize(names.size());
    return reg;
}

const device_entry& registry::at(index_type shard) const
{
    BATCHLIN_ENSURE_MSG(shard >= 0 && shard < size(),
                        "shard id out of range: " + std::to_string(shard));
    return entries_[static_cast<std::size_t>(shard)];
}

xpu::queue& registry::queue(index_type shard)
{
    const device_entry& e = at(shard);
    auto& slot = queues_[static_cast<std::size_t>(shard)];
    if (!slot) {
        slot = std::make_unique<xpu::queue>(e.policy);
    }
    return *slot;
}

}  // namespace batchlin::shard
