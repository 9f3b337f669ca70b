// Schedule explorer: visualize how Eq. 4 (cubic sparsity ramp) and Eq. 5
// (cosine death rate) interact, and how ERK distributes sparsity across
// the layers of the real architectures -- without any training.
#include <cstdio>

#include "nn/models/zoo.hpp"
#include "sparse/distribution.hpp"
#include "sparse/schedule.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const ndsnn::util::Cli cli(argc, argv);
  const double theta_i = cli.get_double("--initial", 0.5);
  const double theta_f = cli.get_double("--final", 0.95);
  const int64_t rounds = cli.get_int("--rounds", 20);
  const std::string arch = cli.get_string("--arch", "resnet19");
  cli.reject_unknown();

  // 1. The two schedules over training (Eq. 4 and Eq. 5).
  std::printf("NDSNN schedules: theta %.2f -> %.2f over %lld rounds\n\n", theta_i, theta_f,
              static_cast<long long>(rounds));
  ndsnn::sparse::SparsityRamp ramp(theta_i, theta_f, 0, 1, rounds);
  ndsnn::sparse::DeathRateSchedule death(0.5, 0.05, 0, 1, rounds);

  ndsnn::util::Table sched({"round", "sparsity (Eq.4)", "death rate (Eq.5)",
                            "drop", "grow", "active"});
  const int64_t n = 100000;
  auto active = static_cast<int64_t>((1.0 - theta_i) * n);
  for (int64_t q = 0; q <= rounds; ++q) {
    const auto counts =
        ndsnn::sparse::drop_grow_counts(n, active, death.at(q), ramp.at(q));
    sched.add_row({std::to_string(q), ndsnn::util::fmt(ramp.at(q), 3),
                   ndsnn::util::fmt(death.at(q), 3), std::to_string(counts.drop),
                   std::to_string(counts.grow),
                   std::to_string(counts.active_after + counts.grow)});
    active = counts.active_after + counts.grow;
  }
  sched.print();

  // 2. ERK distribution over the chosen architecture's prunable layers.
  ndsnn::nn::ModelSpec spec;
  spec.num_classes = 10;
  spec.image_size = 32;
  spec.width_scale = 0.25;  // keep construction fast
  auto net = ndsnn::nn::make_model(arch, spec);

  std::vector<ndsnn::sparse::LayerDims> dims;
  std::vector<std::string> names;
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    dims.push_back(ndsnn::sparse::LayerDims::from_shape(p.value->shape()));
    names.push_back(p.name);
  }
  const auto erk = ndsnn::sparse::erk_distribution(dims, theta_f);
  const auto uni = ndsnn::sparse::uniform_distribution(dims, theta_f);

  std::printf("\nERK vs uniform layer sparsities for %s at %.0f%% overall:\n", arch.c_str(),
              100.0 * theta_f);
  ndsnn::util::Table dist({"layer", "weights", "ERK sparsity", "uniform"});
  for (std::size_t i = 0; i < dims.size(); ++i) {
    dist.add_row({names[i], std::to_string(dims[i].numel), ndsnn::util::fmt(erk[i], 3),
                  ndsnn::util::fmt(uni[i], 3)});
  }
  dist.print();
  std::printf("\noverall check: ERK-weighted sparsity = %.4f (target %.4f)\n",
              ndsnn::sparse::overall_sparsity(dims, erk), theta_f);
  return 0;
}
