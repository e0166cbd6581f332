#include "xpu/policy.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace batchlin::xpu {

bool exec_policy::supports_sub_group(index_type size) const
{
    return std::find(allowed_sub_group_sizes.begin(),
                     allowed_sub_group_sizes.end(),
                     size) != allowed_sub_group_sizes.end();
}

exec_policy make_sycl_policy(index_type num_stacks,
                             size_type slm_bytes_per_group)
{
    BATCHLIN_ENSURE_MSG(num_stacks == 1 || num_stacks == 2,
                        "PVC GPUs have one or two stacks");
    exec_policy policy;
    policy.model = prog_model::sycl;
    policy.allowed_sub_group_sizes = {16, 32};
    policy.has_group_reduction = true;
    policy.num_stacks = num_stacks;
    policy.slm_bytes_per_group = slm_bytes_per_group;
    return policy;
}

exec_policy make_cuda_policy(size_type slm_bytes_per_group)
{
    exec_policy policy;
    policy.model = prog_model::cuda;
    // CUDA exposes only the warp (32 lanes); there is no runtime choice of
    // sub-group size and no work-group-level reduction primitive (§3.2).
    policy.allowed_sub_group_sizes = {32};
    policy.has_group_reduction = false;
    policy.num_stacks = 1;
    policy.slm_bytes_per_group = slm_bytes_per_group;
    policy.sub_group_switch_rows = 0;  // always 32
    return policy;
}

std::string to_string(prog_model model)
{
    return model == prog_model::sycl ? "SYCL" : "CUDA";
}

std::string to_string(reduce_path path)
{
    return path == reduce_path::group ? "group" : "sub-group";
}

std::string to_string(check_level level)
{
    switch (level) {
    case check_level::none: return "none";
    case check_level::shadow: return "shadow";
    case check_level::hazard: return "hazard";
    case check_level::adversary: return "adversary";
    }
    return "unknown";
}

std::string to_string(lane_order order)
{
    switch (order) {
    case lane_order::ascending: return "ascending";
    case lane_order::reversed: return "reversed";
    case lane_order::shuffled: return "shuffled";
    }
    return "unknown";
}

std::string to_string(launch_mode mode)
{
    switch (mode) {
    case launch_mode::direct: return "direct";
    case launch_mode::graph_replay: return "graph_replay";
    }
    return "unknown";
}

launch_mode parse_launch_mode(const std::string& name)
{
    if (name == "direct") {
        return launch_mode::direct;
    }
    if (name == "graph_replay") {
        return launch_mode::graph_replay;
    }
    BATCHLIN_ENSURE_MSG(false,
                        "unknown launch mode (expected direct or "
                        "graph_replay)");
    return launch_mode::direct;
}

}  // namespace batchlin::xpu
