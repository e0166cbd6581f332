#include "solver/instantiate.hpp"
#include "solver/richardson_impl.hpp"

namespace batchlin::solver {

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_INSTANTIATE_RICHARDSON_BOUND, float, float)

}  // namespace batchlin::solver
