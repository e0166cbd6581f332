#include "solver/bicgstab_impl.hpp"
#include "solver/instantiate.hpp"

namespace batchlin::solver {

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_INSTANTIATE_BICGSTAB_BOUND, float, float)

}  // namespace batchlin::solver
