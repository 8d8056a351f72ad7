#include "src/util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

namespace moldable::util::cli {

namespace {

/// --help text starts in this column; continuation lines are indented to it.
constexpr std::size_t kHelpColumn = 18;

}  // namespace

double parse_real(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) throw BadValue("needs a number");
  return v;
}

std::string parse_text(std::string_view text) {
  if (text.empty()) throw BadValue("needs a non-empty value");
  return std::string(text);
}

std::vector<std::string_view> words(std::string_view line) {
  std::vector<std::string_view> out;
  for (std::size_t lo = line.find_first_not_of(" \t\r"); lo != std::string_view::npos;) {
    const std::size_t hi = std::min(line.find_first_of(" \t\r", lo), line.size());
    out.push_back(line.substr(lo, hi - lo));
    lo = line.find_first_not_of(" \t\r", hi);
  }
  return out;
}

Setter real(double& dst) {
  return [&dst](const std::string& v) { dst = parse_real(v); };
}

Setter text(std::string& dst) {
  return [&dst](const std::string& v) { dst = parse_text(v); };
}

Setter on(bool& dst) {
  return [&dst](const std::string&) { dst = true; };
}

FlagTable::FlagTable(std::string synopsis, std::vector<Flag> flags)
    : synopsis_(std::move(synopsis)), flags_(std::move(flags)), given_(flags_.size()) {}

void FlagTable::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(std::cout, argv[0]);
      std::exit(0);
    }
    const auto row = std::find_if(flags_.begin(), flags_.end(),
                                  [&](const Flag& f) { return f.name == arg; });
    if (row == flags_.end()) {
      std::cerr << "unknown option " << arg << "\n";
      print_help(std::cout, argv[0]);
      std::exit(2);
    }
    std::string value;
    if (!row->metavar.empty()) {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      value = argv[++i];
    }
    try {
      row->set(value);
    } catch (const BadValue& e) {
      std::cerr << arg << ' ' << e.what() << ", got '" << value << "'\n";
      std::exit(2);
    }
    given_[row - flags_.begin()] = true;
  }
}

void FlagTable::print_help(std::ostream& os, const char* argv0) const {
  os << "usage: " << argv0 << ' ' << synopsis_ << '\n';
  for (const Flag& f : flags_) {
    std::string line = "  " + f.name + (f.metavar.empty() ? "" : " " + f.metavar);
    line.append(line.size() < kHelpColumn ? kHelpColumn - line.size() : 2, ' ');
    std::string text = (f.mode.empty() ? "" : f.mode + ": ") + f.help;
    for (std::size_t nl = text.find('\n'); nl != std::string::npos; nl = text.find('\n', nl + 1))
      text.insert(nl + 1, kHelpColumn, ' ');
    os << line << text << '\n';
  }
}

bool FlagTable::given(std::string_view name) const {
  for (std::size_t i = 0; i < flags_.size(); ++i)
    if (flags_[i].name == name) return given_[i];
  return false;
}

std::size_t FlagTable::given_count() const {
  return static_cast<std::size_t>(std::count(given_.begin(), given_.end(), true));
}

void FlagTable::warn_inactive(const std::map<std::string, bool>& active) const {
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    const std::string& mode = flags_[i].mode;
    if (mode.empty()) continue;
    const auto it = active.find(mode);
    if (it == active.end()) throw std::logic_error("cli: no activity for mode '" + mode + "'");
    if (given_[i] && !it->second)
      std::cerr << "warning: " << flags_[i].name << " only affects " << mode << " mode\n";
  }
}

}  // namespace moldable::util::cli
