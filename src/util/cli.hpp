// Tiny command-line flag parser for examples and benches.
//
//   ndsnn::util::Cli cli(argc, argv);
//   const int epochs = cli.get_int("--epochs", 20);
//   const bool fast = cli.has_flag("--fast");
//   cli.reject_unknown();  // after the last flag read
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ndsnn::util {

/// Parses `--key value` pairs and bare `--flag`s. Every flag name a
/// query asks for is recorded, so reject_unknown() can name the flags
/// on the command line that nothing read.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--name` appears anywhere on the command line.
  [[nodiscard]] bool has_flag(std::string_view name) const;

  /// Value following `--name`, or `fallback` when absent.
  [[nodiscard]] std::string get_string(std::string_view name, std::string fallback) const;
  [[nodiscard]] int get_int(std::string_view name, int fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;

  /// Arguments that are not flags and not flag values.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Exits with status 2, naming each `--flag` on the command line that
  /// no query above asked for, so a misspelt or retired flag fails
  /// instead of being ignored. Call once, after the program's last flag
  /// read; returns when every flag was asked for.
  void reject_unknown() const;

 private:
  /// Index of the argument after `--name`, or args_.size() when absent.
  [[nodiscard]] std::size_t value_index(std::string_view name) const;

  std::vector<std::string> args_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> asked_;
};

}  // namespace ndsnn::util
