#include "solver/gmres_impl.hpp"
#include "solver/instantiate.hpp"

namespace batchlin::solver {

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_INSTANTIATE_GMRES_BOUND, float, float)

}  // namespace batchlin::solver
