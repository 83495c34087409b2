#include "math/fixed.hpp"

#include "util/error.hpp"

namespace antmd {

void FixedForceArray::merge(const FixedForceArray& other) {
  ANTMD_REQUIRE(other.data_.size() == data_.size(),
                "merging force arrays of different sizes");
  for (size_t i = 0; i < data_.size(); ++i) add_quanta(i, other.data_[i]);
}

void FixedForceArray::drain_into(FixedForceArray& dst) {
  ANTMD_REQUIRE(dst.data_.size() == data_.size(),
                "draining force arrays of different sizes");
  for (size_t i = 0; i < data_.size(); ++i) {
    dst.add_quanta(i, data_[i]);
    data_[i] = {0, 0, 0};
  }
}

}  // namespace antmd
