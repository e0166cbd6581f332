// serve::admission_gate — the submit-vs-stop handshake.
//
// A submitter checks "still accepting?" and pushes its entry a little
// later; without a handshake, stop() and the workers' exit can both slip
// into that gap and the late push is never popped. The gate closes the
// gap with the doorbell's Dekker pattern, every access seq_cst:
//
//   submitter: entering++ -> shut? yes: entering--, refuse
//                                  no:  push ... entering--
//   stop:      shut = true
//   worker:    exits only when shut && entering == 0 && its ring is empty
//
// Either the submitter sees `shut`, or the worker sees it entering; and a
// push made before entering-- is visible to a worker that then reads 0.
// tests/test_conc.cpp model-checks the property and its mutant.
#pragma once

#include <cstdint>

#include "conc/shim.hpp"

namespace batchlin::serve {

struct admission_gate {
    conc::atomic<bool> shut{false};
    /// Submitters between a successful try_enter and their leave.
    conc::atomic<std::uint32_t> entering{0};

    /// Registers a submitter; false (and nothing registered) once closed.
    bool try_enter()
    {
        entering.fetch_add(1, std::memory_order_seq_cst);
        if (shut.load(std::memory_order_seq_cst)) {
            leave();
            return false;
        }
        return true;
    }

    void leave() { entering.fetch_sub(1, std::memory_order_seq_cst); }
    void close() { shut.store(true, std::memory_order_seq_cst); }
    bool closed() const { return shut.load(std::memory_order_acquire); }

    /// Closed with nobody inside: no submitter will push again.
    bool sealed() const
    {
        return shut.load(std::memory_order_seq_cst) &&
               entering.load(std::memory_order_seq_cst) == 0;
    }
};

}  // namespace batchlin::serve
