// Command-graph record/replay — the simulator's analogue of SYCL
// `khr::command_graph` (SNIPPETS.md #2).
//
// A real Level-Zero command graph captures the submissions made to a queue
// between `begin_recording` and `end_recording`, finalizes them into an
// immutable executable, and replays that executable at a fraction of an
// eager submit's cost: the runtime skips argument marshalling, kernel
// lookup, and JIT checks. The simulator mirrors the lifecycle exactly:
//
//   command_graph g;
//   g.begin_recording(q);
//   q.run_batch(...);          // captured, NOT executed
//   g.end_recording();
//   graph_exec exec = g.finalize();   // charges emulated_record_us once
//   exec.replay(q, groups);    // runs `groups` work-groups per node
//
// Replays go through the queue's normal launch path, so the launch counter
// advances and `xpu::fault_plan` events fire on replays just as they do on
// eager submissions — resilience retries work unchanged. A replay that
// observes a device fault should be followed by `invalidate()` so a retry
// re-records rather than replaying a poisoned graph; replaying an
// invalidated executable throws.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "util/math.hpp"

namespace batchlin::xpu {

class group;
class queue;
class command_graph;

/// One captured kernel submission: the launch geometry plus a type-erased
/// kernel body. The body must not dangle — recordable kernels capture
/// their operands by value (raw pointers into storage that outlives the
/// graph), never by reference to stack locals.
struct graph_node {
    index_type num_groups = 0;
    index_type work_group_size = 0;
    index_type sub_group_size = 0;
    index_type first_group = 0;
    const char* kernel_label = "kernel";
    std::function<void(group&)> body;
};

/// A finalized, replayable executable. Cheap to move; replay is not
/// thread-safe (replay on one queue at a time, like the queue itself).
class graph_exec {
public:
    graph_exec() = default;

    /// Executes every recorded node on `q` in record order over its first
    /// `groups` work-groups (an executable-graph update narrowing the
    /// recorded nd-range), through the queue's launch path — the launch
    /// counter advances and fault events keyed to it fire — but charging
    /// one `emulated_replay_us` instead of the eager launch overhead.
    /// Throws whatever the kernels throw, and `state_error` once invalidated.
    void replay(queue& q, index_type groups);

    /// True until `invalidate()` — an empty executable is not valid.
    bool valid() const { return nodes_ != nullptr && !invalidated_; }

    /// Marks the executable unusable. Called after a replay observed a
    /// device fault: the graph may have been half-executed, so retries
    /// must re-record instead of replaying it.
    void invalidate() { invalidated_ = true; }

private:
    friend class command_graph;
    explicit graph_exec(std::shared_ptr<const std::vector<graph_node>> nodes)
        : nodes_(std::move(nodes))
    {}

    std::shared_ptr<const std::vector<graph_node>> nodes_;
    bool invalidated_ = false;
};

/// Records queue submissions into nodes. One recording at a time; the
/// queue validates each captured launch eagerly (geometry errors surface
/// at record time, not replay time) but executes nothing.
class command_graph {
public:
    command_graph() = default;
    ~command_graph();

    command_graph(const command_graph&) = delete;
    command_graph& operator=(const command_graph&) = delete;

    /// Starts capturing `q`'s submissions. The queue must not already be
    /// recording, and must not be mid-launch.
    void begin_recording(queue& q);

    /// Stops capturing. The queue resumes eager execution.
    void end_recording();

    /// Bakes the captured nodes into an immutable executable and charges
    /// the recording queue `emulated_record_us` once — modeling the
    /// runtime's graph-build cost. The recorder is left empty, ready for
    /// another `begin_recording`. Requires at least one captured node.
    graph_exec finalize();

    /// Appends a captured node (called by `queue::run_batch` while this
    /// recorder is attached).
    void add(graph_node node) { nodes_.push_back(std::move(node)); }

private:
    /// Attached queue: set by begin_recording, kept through end_recording
    /// so finalize() can charge the record cost, cleared by finalize().
    queue* queue_ = nullptr;
    bool active_ = false;
    std::vector<graph_node> nodes_;
};

}  // namespace batchlin::xpu
