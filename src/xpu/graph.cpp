#include "xpu/graph.hpp"

#include "util/error.hpp"
#include "xpu/queue.hpp"

namespace batchlin::xpu {

command_graph::~command_graph()
{
    // Detach a still-active recording so the queue does not keep a
    // dangling recorder pointer (mirrors khr::command_graph's RAII).
    if (active_ && queue_ != nullptr) {
        queue_->recorder_ = nullptr;
    }
}

void command_graph::begin_recording(queue& q)
{
    BATCHLIN_ENSURE_MSG(!active_, "this graph is already recording");
    BATCHLIN_ENSURE_MSG(q.recorder_ == nullptr,
                        "the queue is already being recorded by another "
                        "command_graph");
    queue_ = &q;
    active_ = true;
    q.recorder_ = this;
}

void command_graph::end_recording()
{
    BATCHLIN_ENSURE_MSG(active_, "no recording in progress");
    queue_->recorder_ = nullptr;
    active_ = false;
}

graph_exec command_graph::finalize()
{
    BATCHLIN_ENSURE_MSG(!active_,
                        "end_recording() must precede finalize()");
    BATCHLIN_ENSURE_MSG(queue_ != nullptr,
                        "finalize() requires a completed recording");
    BATCHLIN_ENSURE_MSG(!nodes_.empty(),
                        "cannot finalize an empty command graph");
    // The runtime's graph-build cost is paid once, here — not per replay.
    queue::charge_host_cost(queue_->policy().emulated_record_us);
    auto nodes = std::make_shared<const std::vector<graph_node>>(
        std::move(nodes_));
    nodes_.clear();
    queue_ = nullptr;
    return graph_exec(std::move(nodes));
}

void graph_exec::replay(queue& q, index_type groups)
{
    BATCHLIN_ENSURE_MSG(nodes_ != nullptr,
                        "replay of a default-constructed graph_exec");
    BATCHLIN_ENSURE_MSG(!invalidated_,
                        "replay of an invalidated graph_exec; re-record "
                        "instead of replaying a poisoned graph");
    // One submission is charged per replay regardless of node count —
    // that is the whole point of a finalized graph.
    bool first = true;
    for (const graph_node& node : *nodes_) {
        q.run_recorded(node, groups,
                       first ? q.policy().emulated_replay_us : 0.0);
        first = false;
    }
}

}  // namespace batchlin::xpu
