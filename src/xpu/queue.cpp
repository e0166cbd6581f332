#include "xpu/queue.hpp"

#include <chrono>

namespace batchlin::xpu {

double queue::now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void queue::emulate_launch_cost(double us)
{
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::micro>(us));
    while (std::chrono::steady_clock::now() < until) {
    }
}

std::byte* scratch_pool::acquire(size_type bytes)
{
    if (static_cast<size_type>(storage_.size()) < bytes) {
        storage_.resize(static_cast<std::size_t>(bytes));
    }
    return storage_.data();
}

void queue::run_recorded(const graph_node& node, index_type groups,
                         double emulated_us)
{
    BATCHLIN_ENSURE_MSG(static_cast<bool>(node.body),
                        "replay of an empty graph node");
    BATCHLIN_ENSURE_MSG(recorder_ == nullptr,
                        "cannot replay a graph while recording");
    BATCHLIN_ENSURE_MSG(groups >= 0 && groups <= node.num_groups,
                        "replay of more groups than were recorded");
    run_batch_impl(groups, node.work_group_size,
                   node.sub_group_size, node.body, node.first_group,
                   node.kernel_label, emulated_us);
}

std::vector<launch_record> queue::launch_history() const
{
    std::vector<launch_record> ordered;
    ordered.reserve(history_.size());
    const std::size_t head = static_cast<std::size_t>(history_head_);
    ordered.insert(ordered.end(), history_.begin() + head, history_.end());
    ordered.insert(ordered.end(), history_.begin(),
                   history_.begin() + head);
    return ordered;
}

void queue::set_launch_history_capacity(size_type capacity)
{
    BATCHLIN_ENSURE_MSG(capacity > 0,
                        "launch history capacity must be positive");
    // Materialize in chronological order, keep the newest `capacity`.
    std::vector<launch_record> ordered = launch_history();
    if (static_cast<size_type>(ordered.size()) > capacity) {
        ordered.erase(ordered.begin(),
                      ordered.end() - static_cast<std::size_t>(capacity));
    }
    history_ = std::move(ordered);
    history_head_ = 0;
    history_capacity_ = capacity;
}

void queue::record_launch(launch_record record)
{
    if (static_cast<size_type>(history_.size()) < history_capacity_) {
        history_.push_back(std::move(record));
        return;
    }
    history_[static_cast<std::size_t>(history_head_)] = std::move(record);
    history_head_ = (history_head_ + 1) % history_capacity_;
    ++history_dropped_;
}

void queue::prepare_launch(int num_threads)
{
    while (static_cast<int>(arena_pool_.size()) < num_threads) {
        arena_pool_.emplace_back(policy_.slm_bytes_per_group);
    }
    if (static_cast<int>(thread_stats_.size()) < num_threads) {
        thread_stats_.resize(static_cast<std::size_t>(num_threads));
    }
#ifdef BATCHLIN_XPU_CHECK
    if (static_cast<int>(checker_pool_.size()) < num_threads) {
        checker_pool_.resize(static_cast<std::size_t>(num_threads));
    }
#endif
    // Zero only the blocks this launch merges; stale entries beyond
    // `num_threads` (from a launch with more threads) are never read.
    for (int t = 0; t < num_threads; ++t) {
        thread_stats_[static_cast<std::size_t>(t)] = counters{};
    }
}

batch_range stack_partition(index_type num_items, index_type num_stacks,
                            index_type stack_id)
{
    BATCHLIN_ENSURE_MSG(num_stacks > 0, "need at least one stack");
    BATCHLIN_ENSURE_MSG(stack_id >= 0 && stack_id < num_stacks,
                        "stack id out of range");
    const index_type base = num_items / num_stacks;
    const index_type extra = num_items % num_stacks;
    const index_type begin =
        stack_id * base + (stack_id < extra ? stack_id : extra);
    const index_type len = base + (stack_id < extra ? 1 : 0);
    return {begin, begin + len};
}

queue make_stack_queue(const queue& parent)
{
    exec_policy policy = parent.policy();
    policy.num_stacks = 1;
    return queue(policy);
}

}  // namespace batchlin::xpu
