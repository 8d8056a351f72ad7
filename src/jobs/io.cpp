#include "src/jobs/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "src/util/cli.hpp"

namespace moldable::jobs {

namespace {

/// Distinct from plain std::invalid_argument so the oracle-constructor
/// catch below can tell an already-located parse error from a raw oracle
/// validation error (and not wrap the line prefix twice).
struct ParseError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw ParseError("instance parse error, line " + std::to_string(line) + ": " + msg);
}

// The format's one field walk. `to_text` and `content_bytes` both write
// through it, so which fields a record carries, when, and in what order,
// and the catalogue of oracle types, are written down once. An `Out`
// provides open(tag, keyword) to start a line, real(v) and count(v) for one
// numeric field, token(s) for a class token or a job name (empty writes
// nothing as text), and close() to end the line.

/// The metadata directives and the machines line, exactly when and as the
/// text form writes them (the `name` line aside). Metadata directives are
/// omitted at their defaults, so records predating them keep byte-identical
/// output; `arrival -0` reads back as -0.0, which is omitted like 0.
/// (Instance validates the setters: arrival is finite and >= 0, the class is
/// a single token, capacity and footprints are finite and >= 0, one
/// footprint per job.)
template <typename Out>
void walk_header(const Instance& instance, Out& out) {
  if (instance.arrival() != 0) {
    out.open('a', "arrival");
    out.real(instance.arrival());
    out.close();
  }
  if (!instance.sla_class().empty()) {
    out.open('c', "class");
    out.token(instance.sla_class());
    out.close();
  }
  if (instance.memory_capacity() > 0) {
    out.open('k', "memcap");
    out.real(instance.memory_capacity());
    out.close();
  }
  if (instance.has_job_memory()) {
    out.open('f', "mem");
    out.count(static_cast<std::int64_t>(instance.size()));
    for (std::size_t j = 0; j < instance.size(); ++j) out.real(instance.job_memory(j));
    out.close();
  }
  out.open('M', "machines");
  out.count(instance.machines());
  out.close();
}

/// One job line: the oracle's kind and parameters, then the job's name.
/// Returns false, having written nothing, for an oracle type outside the
/// catalogue.
template <typename Out>
bool walk_job(const Job& job, Out& out) {
  const ProcessingTimeFunction& f = job.oracle();
  if (const auto* a = dynamic_cast<const AmdahlTime*>(&f)) {
    out.open('A', "job amdahl");
    out.real(a->t1());
    out.real(a->parallel_fraction());
  } else if (const auto* p = dynamic_cast<const PowerLawTime*>(&f)) {
    out.open('P', "job powerlaw");
    out.real(p->t1());
    out.real(p->alpha());
  } else if (const auto* c = dynamic_cast<const CommOverheadTime*>(&f)) {
    out.open('C', "job comm");
    out.real(c->t1());
    out.real(c->comm_cost());
  } else if (const auto* t = dynamic_cast<const TableTime*>(&f)) {
    out.open('T', "job table");
    out.count(t->max_procs());
    for (double v : t->values()) out.real(v);
  } else if (const auto* l = dynamic_cast<const LinearReductionTime*>(&f)) {
    out.open('L', "job linred");
    out.count(l->machines());
    out.count(l->a());
  } else if (const auto* r = dynamic_cast<const RigidStepTime*>(&f)) {
    out.open('R', "job rigid");
    out.real(r->time());
    out.count(r->size());
    out.real(r->penalty());
  } else if (const auto* g = dynamic_cast<const LogSpeedupTime*>(&f)) {
    out.open('G', "job logspeed");
    out.real(g->t1());
  } else {
    return false;
  }
  out.token(job.name());
  out.close();
  return true;
}

struct TextOut {
  std::string text;
  void open(char, std::string_view keyword) { text += keyword; }
  void real(double v) {
    text += ' ';
    text += fmt_num(v);
  }
  void count(std::int64_t v) {
    text += ' ';
    text += std::to_string(v);
  }
  void token(std::string_view s) {
    if (s.empty()) return;
    text += ' ';
    text += s;
  }
  void close() { text += '\n'; }
};

/// Tags instead of keywords, a double's 8 raw bytes (two finite doubles
/// have equal bits exactly when their %.17g texts are equal, -0 included),
/// counts as LEB128, and a token's length before its bytes: every
/// variable-length part carries its length, so the encoding is prefix-free.
struct BytesOut {
  std::string bytes;
  void open(char tag, std::string_view) { bytes += tag; }
  void real(double v) {
    char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    bytes.append(raw, sizeof(raw));
  }
  void count(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (; u >= 0x80; u >>= 7) bytes += static_cast<char>(u | 0x80);
    bytes += static_cast<char>(u);
  }
  void token(std::string_view s) {
    count(static_cast<std::int64_t>(s.size()));
    bytes += s;
  }
  void close() {}
};

}  // namespace

std::string to_text(const Instance& instance) {
  // The name directive is one line and the reader trims it, so the writer
  // canonicalizes: line breaks are unrepresentable (throw), surrounding
  // whitespace is dropped, and a whitespace-only name means unnamed. A job
  // name is one token, so whitespace in it is unrepresentable too. The
  // written form always round-trips to itself.
  if (instance.name().find('\n') != std::string::npos)
    throw std::invalid_argument("to_text: instance name contains a line break");
  const std::string name = trim(instance.name());
  TextOut out{"moldable-instance v1\n"};
  if (!name.empty()) out.text += "name " + name + '\n';
  walk_header(instance, out);
  for (const Job& job : instance.jobs()) {
    if (job.name().find_first_of(" \t\r\n") != std::string::npos)
      throw std::invalid_argument("to_text: job name '" + job.name() + "' contains whitespace");
    if (!walk_job(job, out))
      throw std::invalid_argument("to_text: unknown oracle type for job '" + job.name() + "'");
  }
  return std::move(out.text);
}

std::optional<std::string> content_bytes(const Instance& instance) {
  BytesOut out;
  walk_header(instance, out);
  out.count(static_cast<std::int64_t>(instance.size()));
  for (const Job& job : instance.jobs())
    if (!walk_job(job, out)) return std::nullopt;
  return std::move(out.bytes);
}

Instance from_text(std::string_view text, std::string default_name) {
  // Every line is split once into its tokens, and each field is exactly one
  // token: counts and reals go through util::cli's strict parsers, reals
  // must also be finite, and a line holds exactly its fields (a job line
  // may add one name token). Anything else fails with the line's number.
  std::size_t lineno = 0;
  std::vector<std::string_view> w;  // the tokens of the current line
  const auto next_line = [&] {  // skips blank and comment lines
    while (!text.empty()) {
      const std::size_t nl = std::min(text.find('\n'), text.size());
      w = util::cli::words(text.substr(0, nl));
      text.remove_prefix(std::min(nl + 1, text.size()));
      ++lineno;
      if (!w.empty() && w[0][0] != '#') return true;
    }
    return false;
  };
  // Field i of the current line; a missing field fails with `missing`.
  const auto real = [&](std::size_t i, const char* missing) {
    if (i >= w.size()) fail(lineno, missing);
    try {
      if (const double v = util::cli::parse_real(w[i]); std::isfinite(v)) return v;
    } catch (const util::cli::BadValue&) {
    }
    fail(lineno, "expected a finite number, got '" + std::string(w[i]) + "'");
  };
  const auto count = [&](std::size_t i, const char* missing) {
    if (i >= w.size()) fail(lineno, missing);
    try {
      return util::cli::parse_count<procs_t>(w[i]);
    } catch (const util::cli::BadValue&) {
      fail(lineno, "expected a non-negative integer, got '" + std::string(w[i]) + "'");
    }
  };

  if (!next_line() || w.size() != 2 || w[0] != "moldable-instance" || w[1] != "v1")
    fail(lineno, "expected 'moldable-instance v1' header");
  if (!next_line()) fail(lineno, "expected 'machines <m>'");

  // Optional metadata directives between the header and the machines line,
  // in any order, at most once each.
  std::string instance_name = std::move(default_name);
  double arrival = 0;
  std::string sla_class;
  double memory_capacity = 0;
  std::vector<double> job_memory;
  std::size_t mem_lineno = 0;  ///< where 'mem' appeared, for the count check
  bool saw_name = false, saw_arrival = false, saw_class = false;
  bool saw_memcap = false, saw_mem = false;
  const auto once = [&](bool& seen) {
    if (seen) fail(lineno, "duplicate '" + std::string(w[0]) + "' directive");
    seen = true;
  };
  for (;;) {
    if (w[0] == "name") {
      once(saw_name);
      if (w.size() < 2) fail(lineno, "'name' directive with no name");
      instance_name.assign(w[1].data(), w.back().data() + w.back().size());  // rest of line
    } else if (w[0] == "arrival") {
      once(saw_arrival);
      arrival = real(1, "'arrival' needs one finite value >= 0");
      if (arrival < 0 || w.size() != 2) fail(lineno, "'arrival' needs one finite value >= 0");
    } else if (w[0] == "class") {
      once(saw_class);
      if (w.size() != 2) fail(lineno, "'class' needs exactly one token");
      sla_class = w[1];
    } else if (w[0] == "memcap") {
      once(saw_memcap);
      memory_capacity = real(1, "'memcap' needs one finite value > 0");
      if (memory_capacity <= 0 || w.size() != 2)
        fail(lineno, "'memcap' needs one finite value > 0");
    } else if (w[0] == "mem") {
      once(saw_mem);
      mem_lineno = lineno;
      const auto n = static_cast<std::size_t>(count(1, "'mem' needs <count> then <count> values"));
      if (n == 0) fail(lineno, "'mem' needs <count> then <count> values");
      // Appended as read, never sized from the declared count: memory
      // follows the record's bytes, not a number it claims.
      while (job_memory.size() < n) {
        job_memory.push_back(real(job_memory.size() + 2, "'mem' values must be finite and >= 0"));
        if (job_memory.back() < 0) fail(lineno, "'mem' values must be finite and >= 0");
      }
      if (w.size() != n + 2) fail(lineno, "'mem' has trailing junk after its values");
    } else {
      break;  // not a metadata directive; must be the machines line
    }
    if (!next_line()) fail(lineno, "expected 'machines <m>'");
  }

  const procs_t m = w[0] == "machines" && w.size() == 2 ? count(1, "") : 0;
  if (m < 1) fail(lineno, "expected 'machines <m>' with m >= 1");
  if (m > kMaxMachines)
    fail(lineno, "machine count " + std::to_string(m) + " is out of range (at most 2^62 = " +
                     std::to_string(kMaxMachines) + ")");

  std::vector<Job> jv;
  while (next_line()) {
    if (w[0] != "job" || w.size() < 2) fail(lineno, "expected 'job <kind> ...'");
    const std::string_view kind = w[1];
    std::size_t fields = 4;  // tokens before the optional job name
    try {
      PtfPtr f;
      if (kind == "amdahl") {
        f = std::make_shared<AmdahlTime>(real(2, "amdahl needs <t1> <fraction>"),
                                         real(3, "amdahl needs <t1> <fraction>"));
      } else if (kind == "powerlaw") {
        f = std::make_shared<PowerLawTime>(real(2, "powerlaw needs <t1> <alpha>"),
                                           real(3, "powerlaw needs <t1> <alpha>"));
      } else if (kind == "comm") {
        f = std::make_shared<CommOverheadTime>(real(2, "comm needs <t1> <comm_cost>"),
                                               real(3, "comm needs <t1> <comm_cost>"));
      } else if (kind == "table") {
        const procs_t k = count(2, "table needs <k> values");
        if (k == 0) fail(lineno, "table needs <k> values");
        if (k != m) fail(lineno, "table length must equal the machine count");
        std::vector<double> values;  // appended as read, like 'mem'
        while (static_cast<procs_t>(values.size()) < k)
          values.push_back(real(values.size() + 3, "table: too few values"));
        f = std::make_shared<TableTime>(std::move(values));
        fields = 3 + static_cast<std::size_t>(k);
      } else if (kind == "linred") {
        const procs_t mm = count(2, "linred needs <machines> <a>");
        if (mm != m) fail(lineno, "linred machine count must equal the instance's");
        f = std::make_shared<LinearReductionTime>(mm, count(3, "linred needs <machines> <a>"));
      } else if (kind == "logspeed") {
        f = std::make_shared<LogSpeedupTime>(real(2, "logspeed needs <t1>"));
        fields = 3;
      } else if (kind == "rigid") {
        const char* usage = "rigid needs <time> <size> <penalty>";
        f = std::make_shared<RigidStepTime>(real(2, usage), count(3, usage), real(4, usage));
        fields = 5;
      } else {
        fail(lineno, "unknown job kind '" + std::string(kind) + "'");
      }
      if (w.size() > fields + 1)
        fail(lineno, "expected at most one job name, got '" + std::string(w[fields + 1]) + "'");
      jv.emplace_back(std::move(f), m, w.size() > fields ? std::string(w[fields]) : "");
    } catch (const ParseError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      fail(lineno, e.what());
    }
  }
  if (!job_memory.empty() && job_memory.size() != jv.size())
    fail(mem_lineno, "'mem' count " + std::to_string(job_memory.size()) +
                         " does not match the job count " + std::to_string(jv.size()));
  Instance out(std::move(jv), m, std::move(instance_name));
  out.set_arrival(arrival);          // all validated at parse time above,
  out.set_sla_class(sla_class);      // so these cannot throw here
  out.set_memory_capacity(memory_capacity);
  out.set_job_memory(std::move(job_memory));
  return out;
}

void save_instance(const std::string& path, const Instance& instance) {
  // Serialize (and validate) before opening: ofstream truncates on open, so
  // a validation throw after that point would destroy an existing file.
  const std::string text = to_text(instance);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_instance: cannot open " + path);
  os << text;
  os.flush();  // surface buffered-write errors (ENOSPC) here, not in ~ofstream
  if (!os) throw std::runtime_error("save_instance: write failed for " + path);
}

Instance load_instance(const std::string& path, std::string default_name) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_instance: cannot open " + path);
  const std::string text(std::istreambuf_iterator<char>(is), {});
  return from_text(text, std::move(default_name));
}

DirectoryLoad load_instances_from_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw std::runtime_error("load_instances_from_dir: not a directory: " + dir);

  // Non-throwing stat: an unreadable entry (EACCES on a network mount, a
  // dangling overlay inode) is recorded and skipped, never aborts the load.
  std::vector<fs::path> paths;
  std::vector<LoadedFile> unstatable;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::error_code entry_ec;
    const bool regular = entry.is_regular_file(entry_ec);
    if (entry_ec) {
      LoadedFile record;
      record.path = entry.path().string();
      record.error = "cannot stat: " + entry_ec.message();
      unstatable.push_back(std::move(record));
    } else if (regular) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  DirectoryLoad out;
  out.files.reserve(paths.size() + unstatable.size());
  for (LoadedFile& record : unstatable) {
    out.files.push_back(std::move(record));
    ++out.skipped;
  }
  for (const fs::path& path : paths) {
    LoadedFile record;
    record.path = path.string();
    try {
      out.instances.push_back(load_instance(record.path, path.stem().string()));
      record.ok = true;
      ++out.loaded;
    } catch (const std::exception& e) {
      record.ok = false;
      record.error = e.what();
      ++out.skipped;
    }
    out.files.push_back(std::move(record));
  }
  std::sort(out.files.begin(), out.files.end(),
            [](const LoadedFile& a, const LoadedFile& b) { return a.path < b.path; });
  return out;
}

namespace {

/// A line opens a record iff its first token is the instance header (leading
/// whitespace allowed, same rule the parser's own line scan uses).
bool is_record_header(const std::string& line) {
  const auto pos = line.find_first_not_of(" \t\r");
  return pos != std::string::npos && line.compare(pos, 17, "moldable-instance") == 0;
}

bool is_flush_marker(const std::string& line) {
  return trim(line) == "moldable-flush v1";
}

}  // namespace

bool InstanceStreamReader::next(StreamRecord& record) {
  std::string line;

  // A flush marker that terminated the previously returned record is
  // delivered now, in sequence — flush records consume no ordinal.
  if (pending_flush_) {
    pending_flush_ = false;
    record = StreamRecord{};
    record.flush = true;
    record.line = pending_flush_line_;
    record.ordinal = ordinal_;
    return true;
  }

  // Find the start of the next record. A non-blank, non-comment line outside
  // any record is itself returned as a malformed record (strictness over
  // silent skipping — a typo'd header would otherwise vanish without trace).
  if (!have_pending_) {
    for (;;) {
      if (!std::getline(*is_, line)) return false;  // end of stream
      ++lineno_;
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos) continue;
      if (line[pos] == '#') {
        // Comments ahead of the first record are the stream's preamble — a
        // generator's manifest block, kept for reporting and replay.
        if (!saw_header_) preamble_.push_back(line.substr(pos));
        continue;
      }
      if (is_flush_marker(line)) {
        record = StreamRecord{};
        record.flush = true;
        record.line = lineno_;
        record.ordinal = ordinal_;
        return true;
      }
      if (is_record_header(line)) {
        pending_header_ = line;
        pending_line_ = lineno_;
        have_pending_ = true;
        saw_header_ = true;
        break;
      }
      record = StreamRecord{};
      record.line = lineno_;
      record.ordinal = ordinal_++;
      record.error = "expected 'moldable-instance v1' header, got: " + trim(line);
      return true;
    }
  }

  // Collect the record body: everything up to the next header or EOF.
  std::string text = pending_header_ + "\n";
  const std::size_t start_line = pending_line_;
  have_pending_ = false;
  while (std::getline(*is_, line)) {
    ++lineno_;
    if (is_record_header(line)) {
      pending_header_ = line;
      pending_line_ = lineno_;
      have_pending_ = true;
      break;
    }
    if (is_flush_marker(line)) {
      // The marker ends this record like a header does; it is yielded as
      // its own flush record on the NEXT call, preserving stream order.
      pending_flush_ = true;
      pending_flush_line_ = lineno_;
      break;
    }
    text += line;
    text += '\n';
  }

  record = StreamRecord{};
  record.line = start_line;
  record.ordinal = ordinal_++;
  try {
    record.instance = from_text(text, "stream-" + std::to_string(record.ordinal));
    record.ok = true;
  } catch (const std::exception& e) {
    record.ok = false;
    record.error = e.what();
  }
  return true;
}

}  // namespace moldable::jobs
