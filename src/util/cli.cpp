#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace ndsnn::util {

namespace {

bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (is_flag(args_[i])) {
      // A flag; if followed by a non-flag token, that token is its value.
      if (i + 1 < args_.size() && !is_flag(args_[i + 1])) ++i;
    } else {
      positional_.push_back(args_[i]);
    }
  }
}

bool Cli::has_flag(std::string_view name) const {
  asked_.emplace_back(name);
  return std::find(args_.begin(), args_.end(), name) != args_.end();
}

std::size_t Cli::value_index(std::string_view name) const {
  asked_.emplace_back(name);
  for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
    if (args_[i] == name) return i + 1;
  }
  return args_.size();
}

std::string Cli::get_string(std::string_view name, std::string fallback) const {
  const std::size_t i = value_index(name);
  return i < args_.size() ? args_[i] : fallback;
}

int Cli::get_int(std::string_view name, int fallback) const {
  const std::size_t i = value_index(name);
  return i < args_.size() ? std::atoi(args_[i].c_str()) : fallback;
}

double Cli::get_double(std::string_view name, double fallback) const {
  const std::size_t i = value_index(name);
  return i < args_.size() ? std::atof(args_[i].c_str()) : fallback;
}

void Cli::reject_unknown() const {
  bool unknown = false;
  for (const std::string& arg : args_) {
    if (!is_flag(arg) || std::find(asked_.begin(), asked_.end(), arg) != asked_.end()) {
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
    unknown = true;
  }
  if (unknown) std::exit(2);
}

}  // namespace ndsnn::util
