// Shape: dimension vector for dense row-major tensors.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace ndsnn::tensor {

/// Immutable-by-convention dimension list. Rank 0 denotes a scalar with
/// one element. All dimensions must be >= 1 (empty tensors are represented
/// explicitly by the code that needs them, never by zero dims).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  /// Replaces the dims in the storage this shape already holds.
  void assign(std::initializer_list<int64_t> dims);

  [[nodiscard]] int64_t rank() const { return static_cast<int64_t>(dims_.size()); }
  [[nodiscard]] int64_t dim(int64_t i) const;
  [[nodiscard]] int64_t operator[](int64_t i) const { return dim(i); }

  /// Product of all dims; 1 for a scalar.
  [[nodiscard]] int64_t numel() const;

  [[nodiscard]] const std::vector<int64_t>& dims() const { return dims_; }

  /// Row-major strides (in elements, not bytes).
  [[nodiscard]] std::vector<int64_t> strides() const;

  [[nodiscard]] bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  [[nodiscard]] bool operator!=(const Shape& other) const { return !(*this == other); }

  /// "[2, 3, 4]"
  [[nodiscard]] std::string str() const;

 private:
  std::vector<int64_t> dims_;
  void validate() const;
};

}  // namespace ndsnn::tensor
