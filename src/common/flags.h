#ifndef SCENEREC_COMMON_FLAGS_H_
#define SCENEREC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace scenerec {

/// Minimal command-line flag parser used by the example and benchmark
/// binaries. Accepts `--name=value` and `--name value`; bool flags may omit
/// the value (`--verbose`). Unknown flags are an error so typos surface;
/// `--help` is answered by the parser itself.
///
///   FlagParser flags;
///   flags.AddInt64("seed", 42, "RNG seed");
///   flags.AddDouble("scale", 1.0, "dataset scale factor");
///   Status s = flags.Parse(argc, argv);
class FlagParser {
 public:
  FlagParser() = default;

  FlagParser(const FlagParser&) = delete;
  FlagParser& operator=(const FlagParser&) = delete;

  /// Registers flags. Names must be unique.
  void AddInt64(const std::string& name, int64_t default_value,
                const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  /// A string flag that may appear bare: `--name` sets `implicit_value`
  /// (without consuming the next argv token), `--name=text` sets `text`.
  /// Read it back with GetString.
  void AddImplicitString(const std::string& name,
                         const std::string& default_value,
                         const std::string& implicit_value,
                         const std::string& help);

  /// Parses argv; returns InvalidArgument naming the flag on an unknown
  /// flag or a bad value (callers print Help() once after it). `--help`
  /// prints Help() to stdout and exits 0. Non-flag positional arguments are
  /// collected into positional().
  Status Parse(int argc, char** argv);

  /// Typed accessors. The flag must have been registered with the matching
  /// Add* overload.
  int64_t GetInt64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders a usage/help block listing all registered flags.
  std::string Help() const;

 private:
  enum class Type { kInt64, kDouble, kBool, kString, kImplicitString };

  struct Flag {
    Type type;
    std::string help;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
    std::string implicit_value;  // kImplicitString only: value when bare
  };

  Status SetFromString(Flag& flag, const std::string& name,
                       const std::string& text);
  const Flag& GetFlag(const std::string& name, Type type) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace scenerec

#endif  // SCENEREC_COMMON_FLAGS_H_
