// SLM workspace planner (paper §3.5).
//
// Each solver keeps its intermediate vectors per work-group; the planner
// places them into the device's shared-local-memory budget greedily in a
// solver-specific priority order derived from usage frequency and size
// (for BatchCg: r, z, p, t, x, then the preconditioner workspace). Vectors
// that do not fit spill to a per-group slice of a global backing array.
// The chosen placement is what drives both the numerics (identical either
// way) and the performance model (SLM traffic vs HBM traffic, occupancy).
#pragma once

#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace batchlin::solver {

/// The batched solvers of Table 3.
enum class solver_type {
    cg,
    bicgstab,
    gmres,
    trsv,
    /// Preconditioned Richardson iteration (library extension).
    richardson,
};

std::string to_string(solver_type s);

/// SLM placement strategy; `priority` is the paper's scheme, the other two
/// exist for the ablation benchmarks.
enum class slm_mode {
    /// Greedy placement by the solver's priority list (§3.5).
    priority,
    /// Everything in global memory (no SLM usage).
    none,
    /// Everything in SLM regardless of the budget (occupancy ablation;
    /// requires an arena sized to fit).
    all,
};

/// Placement decision for the whole per-group workspace of one solve.
struct slm_plan {
    struct entry {
        std::string name;
        size_type elems = 0;
        bool in_slm = false;
    };

    std::vector<entry> entries;
    /// Bytes of SLM claimed per work-group.
    size_type slm_bytes = 0;
    /// Elements (of the value type) spilled to global memory per group.
    size_type global_elems_per_group = 0;

    /// Index of a named entry; throws when absent.
    index_type find(const std::string& name) const;
    /// Whether the named vector was placed in SLM.
    bool in_slm(const std::string& name) const;
};

/// Host-resolved form of an `slm_plan`: one integer slot per entry. The
/// plan's named entries are resolved ONCE per launch on the host — slot
/// order, element counts, SLM-vs-global placement, and the running spill
/// offset — so the per-work-group workspace binding inside the fused
/// kernels is pure index arithmetic with no string comparisons. Debug
/// builds retain the name checks (the kernels' take() order must match the
/// planner's priority list exactly); release builds compile them away.
class bound_plan {
public:
    struct slot {
        size_type elems = 0;
        /// Element offset into the group's spill backing; only meaningful
        /// when the slot spilled to global memory.
        size_type spill_offset = 0;
        bool in_slm = false;
    };

    /// Resolves `plan` into slots. The plan must outlive the bound_plan
    /// (debug builds keep a reference for the name checks).
    explicit bound_plan(const slm_plan& plan);

    index_type size() const
    {
        return static_cast<index_type>(slots_.size());
    }
    const slot& operator[](index_type i) const
    {
        return slots_[static_cast<std::size_t>(i)];
    }
    /// Debug-only guard: entry `i` of the source plan must be named `name`.
    void check_name(index_type i, const char* name) const
    {
#ifndef NDEBUG
        BATCHLIN_ENSURE_MSG(source_->entries[static_cast<std::size_t>(i)]
                                    .name == name,
                            "workspace order mismatch: expected " +
                                source_->entries[static_cast<std::size_t>(i)]
                                    .name);
#else
        (void)i;
        (void)name;
#endif
    }

private:
    std::vector<slot> slots_;
#ifndef NDEBUG
    const slm_plan* source_ = nullptr;
#endif
};

/// Builds the placement for one solver configuration.
///  rows/nnz       — system dimensions (shared by the batch),
///  precond_elems  — preconditioner workspace (value-type elements),
///  slm_budget     — device SLM bytes available per work-group,
///  value_size     — sizeof(value type),
///  gmres_restart  — Krylov basis size for GMRES (ignored otherwise).
slm_plan plan_workspace(solver_type solver, index_type rows, index_type nnz,
                        size_type precond_elems, size_type slm_budget,
                        size_type value_size, index_type gmres_restart = 0,
                        slm_mode mode = slm_mode::priority);

}  // namespace batchlin::solver
