#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ndsnn::tensor {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + a.shape().str() +
                                " vs " + b.shape().str());
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_(c, b);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  sub_(c, b);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  mul_(c, b);
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  scale_(c, s);
  return c;
}

void add_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void sub_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub_");
  float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] -= pb[i];
}

void mul_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul_");
  float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] *= pb[i];
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] *= s;
}

void axpy_(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_");
  float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] += s * pb[i];
}

Tensor map(const Tensor& a, const std::function<float(float)>& fn) {
  Tensor c = a;
  map_(c, fn);
  return c;
}

void map_(Tensor& a, const std::function<float(float)>& fn) {
  float* pa = a.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] = fn(pa[i]);
}

void add_row_bias_(Tensor& out, const Tensor& bias) {
  if (out.rank() != 2 || bias.rank() != 1 || out.dim(1) != bias.dim(0)) {
    throw std::invalid_argument("add_row_bias_: expected [M, C] + [C], got " +
                                out.shape().str() + " + " + bias.shape().str());
  }
  const int64_t m = out.dim(0), c = out.dim(1);
  const float* b = bias.data();
  float* row = out.data();
  for (int64_t r = 0; r < m; ++r, row += c) {
    for (int64_t j = 0; j < c; ++j) row[j] += b[j];
  }
}

void add_channel_bias_(Tensor& out, const Tensor& bias) {
  if (out.rank() != 4 || bias.rank() != 1 || out.dim(1) != bias.dim(0)) {
    throw std::invalid_argument("add_channel_bias_: expected [M, C, H, W] + [C], got " +
                                out.shape().str() + " + " + bias.shape().str());
  }
  const int64_t m = out.dim(0), c = out.dim(1), plane = out.dim(2) * out.dim(3);
  const float* b = bias.data();
  float* p = out.data();
  for (int64_t mm = 0; mm < m; ++mm) {
    for (int64_t ch = 0; ch < c; ++ch, p += plane) {
      const float v = b[ch];
      if (v == 0.0F) continue;
      for (int64_t i = 0; i < plane; ++i) p[i] += v;
    }
  }
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax_rows: expected rank-2, got " + logits.shape().str());
  }
  const int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(logits.shape());
  for (int64_t r = 0; r < rows; ++r) {
    float maxv = logits.at(r, 0);
    for (int64_t c = 1; c < cols; ++c) maxv = std::max(maxv, logits.at(r, c));
    double denom = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const float e = std::exp(logits.at(r, c) - maxv);
      out.at(r, c) = e;
      denom += e;
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (int64_t c = 0; c < cols; ++c) out.at(r, c) *= inv;
  }
  return out;
}

Tensor slice_rows(const Tensor& t, int64_t lo, int64_t hi) {
  std::vector<int64_t> dims = t.shape().dims();
  dims[0] = hi - lo;
  const int64_t row = t.numel() / t.dim(0);
  return Tensor(Shape(std::move(dims)),
                std::vector<float>(t.data() + lo * row, t.data() + hi * row));
}

Tensor concat_rows(const std::vector<const Tensor*>& parts) {
  std::vector<int64_t> dims = parts.front()->shape().dims();
  dims[0] = 0;
  for (const Tensor* t : parts) dims[0] += t->dim(0);
  Tensor out((Shape(std::move(dims))));
  float* dst = out.data();
  for (const Tensor* t : parts) dst = std::copy(t->data(), t->data() + t->numel(), dst);
  return out;
}

std::vector<int64_t> argmax_rows(const Tensor& m) {
  if (m.rank() != 2) {
    throw std::invalid_argument("argmax_rows: expected rank-2, got " + m.shape().str());
  }
  const int64_t rows = m.dim(0), cols = m.dim(1);
  std::vector<int64_t> idx(static_cast<std::size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    int64_t best = 0;
    float bestv = m.at(r, 0);
    for (int64_t c = 1; c < cols; ++c) {
      if (m.at(r, c) > bestv) {
        bestv = m.at(r, c);
        best = c;
      }
    }
    idx[static_cast<std::size_t>(r)] = best;
  }
  return idx;
}

double mean(const Tensor& a) { return a.sum() / static_cast<double>(a.numel()); }

double l2_norm(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(p[i]) * p[i];
  return std::sqrt(acc);
}

}  // namespace ndsnn::tensor
