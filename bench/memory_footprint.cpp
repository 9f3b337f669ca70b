// Sec. III-D: training memory footprint model, evaluated on the real
// parameter counts of the (full-width) paper architectures.
#include <cstdio>
#include <vector>

#include "nn/models/zoo.hpp"
#include "sparse/memory_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ndsnn::util::Cli(argc, argv).reject_unknown();  // takes no flags
  std::printf("=== Sec. III-D: memory footprint (1-theta)((1+t)N*b_w + N*b_idx) ===\n\n");

  // Full-width architectures at the paper's resolutions.
  struct Arch {
    const char* name;
    const char* builder;
    int64_t image;
  };
  const std::vector<Arch> archs = {{"VGG-16", "vgg16", 32}, {"ResNet-19", "resnet19", 32},
                                   {"LeNet-5", "lenet5", 32}};

  ndsnn::util::Table table({"arch", "weights N", "sparsity", "T", "footprint (MB)",
                            "vs dense"});
  for (const auto& arch : archs) {
    ndsnn::nn::ModelSpec spec;
    spec.num_classes = 10;
    spec.image_size = arch.image;
    spec.timesteps = 1;  // construction only; footprint model takes t below
    auto net = ndsnn::nn::make_model(arch.builder, spec);
    const int64_t n = net->prunable_weight_count();

    ndsnn::sparse::MemoryModelInput dense_in;
    dense_in.total_weights = n;
    dense_in.sparsity = 0.0;
    dense_in.timesteps = 5;
    const double dense_mb = ndsnn::sparse::footprint_mbytes_approx(dense_in);

    for (const double theta : {0.0, 0.90, 0.95, 0.98, 0.99}) {
      ndsnn::sparse::MemoryModelInput in = dense_in;
      in.sparsity = theta;
      const double mb = ndsnn::sparse::footprint_mbytes_approx(in);
      table.add_row({arch.name, std::to_string(n), ndsnn::util::fmt(theta, 2), "5",
                     ndsnn::util::fmt(mb, 1),
                     ndsnn::util::fmt(100.0 * mb / dense_mb, 1) + "%"});
    }
  }
  table.print();

  std::printf("\ntimestep sensitivity (VGG-16 @ 95%% sparsity):\n");
  ndsnn::nn::ModelSpec spec;
  spec.num_classes = 10;
  spec.image_size = 32;
  auto vgg = ndsnn::nn::make_vgg16(spec);
  ndsnn::util::Table ttab({"T", "footprint (MB)"});
  for (const int64_t t : {1, 2, 4, 5, 8, 16}) {
    ndsnn::sparse::MemoryModelInput in;
    in.total_weights = vgg->prunable_weight_count();
    in.sparsity = 0.95;
    in.timesteps = t;
    ttab.add_row({std::to_string(t),
                  ndsnn::util::fmt(ndsnn::sparse::footprint_mbytes_approx(in), 1)});
  }
  ttab.print();
  return 0;
}
