#include "solver/cg_impl.hpp"
#include "solver/instantiate.hpp"

namespace batchlin::solver {

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_INSTANTIATE_CG_BOUND, float, float)

}  // namespace batchlin::solver
