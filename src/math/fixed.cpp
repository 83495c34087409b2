#include "math/fixed.hpp"

#include "util/error.hpp"

namespace antmd {

void FixedForceArray::merge(const FixedForceArray& other) {
  ANTMD_REQUIRE(other.data_.size() == data_.size(),
                "merging force arrays of different sizes");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i][0] += other.data_[i][0];
    data_[i][1] += other.data_[i][1];
    data_[i][2] += other.data_[i][2];
  }
}

void FixedForceArray::drain_into(FixedForceArray& dst) {
  ANTMD_REQUIRE(dst.data_.size() == data_.size(),
                "draining force arrays of different sizes");
  for (size_t i = 0; i < data_.size(); ++i) {
    dst.data_[i][0] += data_[i][0];
    dst.data_[i][1] += data_[i][1];
    dst.data_[i][2] += data_[i][2];
    data_[i] = {0, 0, 0};
  }
}

std::vector<Vec3> FixedForceArray::to_vectors() const {
  std::vector<Vec3> out(data_.size());
  for (size_t i = 0; i < data_.size(); ++i) out[i] = force(i);
  return out;
}

}  // namespace antmd
