#include "tensor/shape.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ndsnn::tensor {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) { validate(); }

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) { validate(); }

void Shape::assign(std::initializer_list<int64_t> dims) {
  // Checked before dims_ changes, so a bad list leaves this shape as it
  // was; Shape(dims) throws the constructor's error.
  if (std::any_of(dims.begin(), dims.end(), [](int64_t d) { return d < 1; })) (void)Shape(dims);
  dims_.assign(dims);
}

void Shape::validate() const {
  for (const int64_t d : dims_) {
    if (d < 1) {
      throw std::invalid_argument("Shape: all dims must be >= 1, got " + str());
    }
  }
}

int64_t Shape::dim(int64_t i) const {
  if (i < 0) i += rank();
  if (i < 0 || i >= rank()) {
    throw std::out_of_range("Shape::dim: index " + std::to_string(i) + " out of range for " + str());
  }
  return dims_[static_cast<std::size_t>(i)];
}

int64_t Shape::numel() const {
  int64_t n = 1;
  for (const int64_t d : dims_) n *= d;
  return n;
}

std::vector<int64_t> Shape::strides() const {
  std::vector<int64_t> s(dims_.size());
  int64_t acc = 1;
  for (std::size_t i = dims_.size(); i-- > 0;) {
    s[i] = acc;
    acc *= dims_[i];
  }
  return s;
}

std::string Shape::str() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << ", ";
    out << dims_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace ndsnn::tensor
