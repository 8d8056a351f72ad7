// Command-line plumbing: one strict value parser and tokenizer, which the
// two drivers, the instance format, the record loader and the curve,
// class-mix and address specs share, and a flag table whose rows drive argv
// parsing, the generated --help text and the "only affects <mode> mode"
// warnings.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace moldable::util::cli {

/// A value its flag (or record key) cannot take. what() finishes the
/// sentence "<flag> ...", e.g. "needs a non-negative integer".
struct BadValue : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// A non-negative decimal integer that fits in T: digits only — no sign,
/// whitespace, radix prefix or trailing text. Throws BadValue.
template <class T>
T parse_count(std::string_view text) {
  static_assert(std::is_integral_v<T>);
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
    throw BadValue("needs a non-negative integer");
  return static_cast<T>(v);
}

/// A whole-string real number. `nan` and `inf` parse; a caller that needs
/// a finite value checks it. Throws BadValue.
double parse_real(std::string_view text);

/// A non-empty string, returned as is. Throws BadValue.
std::string parse_text(std::string_view text);

/// The tokens of one line: the runs between spaces, tabs and CRs, as views
/// into `line`, which must outlive them.
std::vector<std::string_view> words(std::string_view line);

using Setter = std::function<void(const std::string& value)>;

/// One row per flag: everything the parser, --help and the mode warnings
/// know about it.
struct Flag {
  std::string name;     ///< "--window"
  std::string metavar;  ///< value placeholder in --help; empty = a switch
  std::string help;     ///< --help text; '\n' starts an indented line
  std::string mode;     ///< the mode the flag only affects; empty = every mode
  Setter set;           ///< stores the value ("" for a switch); throws BadValue
};

/// Setters for the common kinds: each stores into `dst`, which must outlive
/// the table.
template <class T>
Setter count(T& dst) {
  return [&dst](const std::string& v) { dst = parse_count<T>(v); };
}
/// count(dst) that also refuses a value above `max`, which `max_text`
/// names in the diagnostic.
template <class T>
Setter count_at_most(T& dst, T max, const char* max_text) {
  return [&dst, max, max_text](const std::string& v) {
    const T value = parse_count<T>(v);
    if (value > max) throw BadValue(std::string("must be at most ") + max_text);
    dst = value;
  };
}
Setter real(double& dst);
Setter text(std::string& dst);
Setter on(bool& dst);

class FlagTable {
 public:
  /// `synopsis` follows "usage: <argv0> " on the first --help line.
  FlagTable(std::string synopsis, std::vector<Flag> flags);

  /// Parses argv[1..argc). --help/-h prints the help and exits 0; an
  /// unknown option, a missing value or a refused value prints a
  /// diagnostic naming the flag and exits 2. Other exceptions from a
  /// setter propagate.
  void parse(int argc, char** argv);

  void print_help(std::ostream& os, const char* argv0) const;

  bool given(std::string_view name) const;
  std::size_t given_count() const;

  /// Warns on stderr, once per flag, about every given flag whose mode is
  /// inactive. `active` maps every mode a row names to whether this run is
  /// in it; a mode missing from it is a std::logic_error.
  void warn_inactive(const std::map<std::string, bool>& active) const;

 private:
  std::string synopsis_;
  std::vector<Flag> flags_;
  std::vector<bool> given_;
};

}  // namespace moldable::util::cli
