#include "solver/workspace.hpp"

#include "util/error.hpp"

namespace batchlin::solver {

std::string to_string(solver_type s)
{
    switch (s) {
    case solver_type::cg:
        return "BatchCg";
    case solver_type::bicgstab:
        return "BatchBicgstab";
    case solver_type::gmres:
        return "BatchGmres";
    case solver_type::trsv:
        return "BatchTrsv";
    case solver_type::richardson:
        return "BatchRichardson";
    }
    return "?";
}

index_type slm_plan::find(const std::string& name) const
{
    for (index_type i = 0; i < static_cast<index_type>(entries.size());
         ++i) {
        if (entries[i].name == name) {
            return i;
        }
    }
    BATCHLIN_ENSURE_MSG(false, "unknown workspace entry: " + name);
    return -1;
}

bool slm_plan::in_slm(const std::string& name) const
{
    return entries[find(name)].in_slm;
}

bound_plan::bound_plan(const slm_plan& plan)
{
    slots_.reserve(plan.entries.size());
    size_type spill_offset = 0;
    for (const slm_plan::entry& e : plan.entries) {
        slot s;
        s.elems = e.elems;
        s.in_slm = e.in_slm;
        s.spill_offset = spill_offset;
        if (!e.in_slm) {
            spill_offset += e.elems;
        }
        slots_.push_back(s);
    }
#ifndef NDEBUG
    source_ = &plan;
#endif
}

namespace {

/// One named vector request in priority order.
struct request {
    const char* name;
    size_type elems;
};

std::vector<request> priority_list(solver_type solver, index_type rows,
                                   size_type precond_elems,
                                   index_type restart)
{
    const size_type n = rows;
    std::vector<request> list;
    switch (solver) {
    case solver_type::cg:
        // Paper §3.5: decreasing priority r, z, p, t, x, then the
        // preconditioner workspace if SLM remains.
        list = {{"r", n}, {"z", n}, {"p", n}, {"t", n}, {"x", n}};
        break;
    case solver_type::bicgstab:
        // Most frequently touched vectors first: the residual and the
        // direction/update vectors of every iteration, then the hat
        // vectors, the shadow residual (read-only after setup), and x.
        list = {{"r", n},     {"p", n},     {"v", n},
                {"s", n},     {"t", n},     {"p_hat", n},
                {"s_hat", n}, {"r_hat", n}, {"x", n}};
        break;
    case solver_type::gmres: {
        const size_type m = restart;
        // The small Hessenberg system and rotations are touched every
        // inner step; the basis dominates the footprint and comes after
        // the per-step scratch.
        list = {{"w", n},
                {"hessenberg", (m + 1) * m},
                {"givens", 3 * (m + 1)},  // cs, sn, g stacked
                {"basis", (m + 1) * n},
                {"x", n},
                {"y", m}};
        break;
    }
    case solver_type::trsv:
        list = {{"x", n}};
        break;
    case solver_type::richardson:
        list = {{"r", n}, {"z", n}, {"t", n}, {"x", n}};
        break;
    }
    if (precond_elems > 0) {
        list.push_back({"precond", precond_elems});
    }
    return list;
}

}  // namespace

namespace {

slm_plan build_plan(solver_type solver, index_type rows,
                    size_type precond_elems, size_type slm_budget,
                    size_type value_size, index_type gmres_restart,
                    slm_mode mode)
{
    slm_plan plan;
    size_type used = 0;
    for (const request& req :
         priority_list(solver, rows, precond_elems, gmres_restart)) {
        const size_type bytes = req.elems * value_size;
        bool place_slm = false;
        switch (mode) {
        case slm_mode::priority:
            place_slm = used + bytes <= slm_budget;
            break;
        case slm_mode::none:
            place_slm = false;
            break;
        case slm_mode::all:
            place_slm = true;
            break;
        }
        if (place_slm) {
            used += bytes;
        } else {
            plan.global_elems_per_group += req.elems;
        }
        plan.entries.push_back({req.name, req.elems, place_slm});
    }
    plan.slm_bytes = used;
    return plan;
}

}  // namespace

slm_plan plan_workspace(solver_type solver, index_type rows, index_type nnz,
                        size_type precond_elems, size_type slm_budget,
                        size_type value_size, index_type gmres_restart,
                        slm_mode mode)
{
    BATCHLIN_ENSURE_MSG(rows >= 0 && nnz >= 0, "negative dimensions");
    BATCHLIN_ENSURE_MSG(value_size > 0, "invalid value size");
    BATCHLIN_ENSURE_MSG(solver != solver_type::gmres || gmres_restart > 0,
                        "GMRES requires a positive restart length");

    // Planning is pure in its arguments; repeated solves of one shape (the
    // bench and figure sweeps) hit the same key every time, so memoize the
    // most recent plan per thread and skip rebuilding the entry list.
    struct memo_key {
        solver_type solver;
        index_type rows;
        size_type precond_elems;
        size_type slm_budget;
        size_type value_size;
        index_type gmres_restart;
        slm_mode mode;

        bool operator==(const memo_key&) const = default;
    };
    const memo_key key{solver,     rows,          precond_elems, slm_budget,
                       value_size, gmres_restart, mode};
    thread_local memo_key cached_key;
    thread_local slm_plan cached_plan;
    thread_local bool cached = false;
    if (!cached || !(key == cached_key)) {
        cached_plan = build_plan(solver, rows, precond_elems, slm_budget,
                                 value_size, gmres_restart, mode);
        cached_key = key;
        cached = true;
    }
    return cached_plan;
}

}  // namespace batchlin::solver
