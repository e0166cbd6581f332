#include "matrix/storage.hpp"

#include "util/error.hpp"

namespace batchlin::mat {

std::string to_string(storage_precision mode)
{
    return mode == storage_precision::native ? "native" : "fp32";
}

storage_precision parse_storage_precision(const std::string& name)
{
    if (name == "native") {
        return storage_precision::native;
    }
    if (name == "fp32") {
        return storage_precision::fp32;
    }
    BATCHLIN_ENSURE_MSG(
        false, "unknown storage precision (expected native or fp32)");
    return storage_precision::native;
}

}  // namespace batchlin::mat
