// Mixed-precision instantiations: double compute over fp32 storage
// (mat::storage_precision::fp32). Kept in a separate translation unit so
// the native builds stay as cheap to compile as before the storage axis.
#include "solver/gmres_impl.hpp"
#include "solver/instantiate.hpp"

namespace batchlin::solver {

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_INSTANTIATE_GMRES_BOUND, double, float)

}  // namespace batchlin::solver
