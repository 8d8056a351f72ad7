#include "src/jobs/io.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace moldable::jobs {

namespace {

/// Distinct from plain std::invalid_argument so the oracle-constructor
/// catch below can tell an already-located parse error from a raw oracle
/// validation error (and not wrap the line prefix twice).
struct ParseError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

void fail(std::size_t line, const std::string& msg) {
  throw ParseError("instance parse error, line " + std::to_string(line) + ": " + msg);
}

}  // namespace

void write_instance(std::ostream& os, const Instance& instance) {
  // The name directive is one line and the reader trims it, so the writer
  // canonicalizes: line breaks are unrepresentable (throw, before anything
  // is written so a failed save leaves no partial output), surrounding
  // whitespace is dropped, and a whitespace-only name means unnamed. The
  // written form always round-trips to itself.
  if (instance.name().find('\n') != std::string::npos)
    throw std::invalid_argument("write_instance: instance name contains a line break");
  const std::string name = trim(instance.name());
  os << "moldable-instance v1\n";
  os.precision(17);
  if (!name.empty()) os << "name " << name << "\n";
  // Metadata directives are omitted at their defaults, so files predating
  // them keep byte-identical output. (Instance validates both setters:
  // arrival is finite and >= 0, the class is a single token.)
  if (instance.arrival() != 0) os << "arrival " << instance.arrival() << "\n";
  if (!instance.sla_class().empty()) os << "class " << instance.sla_class() << "\n";
  // The memory axis is additive metadata like the directives above: both
  // lines are omitted at their defaults, so memory-free instances keep
  // byte-identical output. (Instance validates the setters: capacity and
  // footprints are finite and >= 0, one footprint per job.)
  if (instance.memory_capacity() > 0)
    os << "memcap " << instance.memory_capacity() << "\n";
  if (instance.has_job_memory()) {
    os << "mem " << instance.size();
    for (std::size_t j = 0; j < instance.size(); ++j)
      os << " " << instance.job_memory(j);
    os << "\n";
  }
  os << "machines " << instance.machines() << "\n";
  for (const Job& job : instance.jobs()) {
    const ProcessingTimeFunction& f = job.oracle();
    os << "job ";
    if (const auto* a = dynamic_cast<const AmdahlTime*>(&f)) {
      os << "amdahl " << a->t1() << " " << a->parallel_fraction();
    } else if (const auto* p = dynamic_cast<const PowerLawTime*>(&f)) {
      os << "powerlaw " << p->t1() << " " << p->alpha();
    } else if (const auto* c = dynamic_cast<const CommOverheadTime*>(&f)) {
      os << "comm " << c->t1() << " " << c->comm_cost();
    } else if (const auto* t = dynamic_cast<const TableTime*>(&f)) {
      os << "table " << t->values().size();
      for (double v : t->values()) os << " " << v;
    } else if (const auto* l = dynamic_cast<const LinearReductionTime*>(&f)) {
      os << "linred " << l->machines() << " " << l->a();
    } else if (const auto* r = dynamic_cast<const RigidStepTime*>(&f)) {
      os << "rigid " << r->time() << " " << r->size() << " " << r->penalty();
    } else if (const auto* g = dynamic_cast<const LogSpeedupTime*>(&f)) {
      os << "logspeed " << g->t1();
    } else {
      throw std::invalid_argument("write_instance: unknown oracle type for job '" +
                                  job.name() + "'");
    }
    if (!job.name().empty()) os << " " << job.name();
    os << "\n";
  }
}

std::string to_text(const Instance& instance) {
  std::ostringstream ss;
  write_instance(ss, instance);
  return ss.str();
}

Instance read_instance(std::istream& is, std::string default_name) {
  std::string line;
  std::size_t lineno = 0;
  auto next_meaningful = [&](std::string& out) {
    while (std::getline(is, line)) {
      ++lineno;
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      out = line;
      return true;
    }
    return false;
  };

  std::string header;
  if (!next_meaningful(header) || header.rfind("moldable-instance", 0) != 0)
    fail(lineno, "expected 'moldable-instance v1' header");

  std::string mline;
  if (!next_meaningful(mline)) fail(lineno, "expected 'machines <m>'");

  // Optional metadata directives between the header and the machines line,
  // in any order, at most once each: 'name <rest of line>', 'arrival <t>',
  // 'class <token>'.
  std::string instance_name = std::move(default_name);
  double arrival = 0;
  std::string sla_class;
  double memory_capacity = 0;
  std::vector<double> job_memory;
  std::size_t mem_lineno = 0;  ///< where 'mem' appeared, for the count check
  bool saw_name = false, saw_arrival = false, saw_class = false;
  bool saw_memcap = false, saw_mem = false;
  for (;;) {
    std::istringstream ds(mline);
    std::string kw;
    ds >> kw;
    if (kw == "name") {
      if (saw_name) fail(lineno, "duplicate 'name' directive");
      saw_name = true;
      std::getline(ds, instance_name);
      instance_name = trim(instance_name);
      if (instance_name.empty()) fail(lineno, "'name' directive with no name");
    } else if (kw == "arrival") {
      if (saw_arrival) fail(lineno, "duplicate 'arrival' directive");
      saw_arrival = true;
      std::string junk;
      if (!(ds >> arrival) || !std::isfinite(arrival) || arrival < 0 || (ds >> junk))
        fail(lineno, "'arrival' needs one finite value >= 0");
    } else if (kw == "class") {
      if (saw_class) fail(lineno, "duplicate 'class' directive");
      saw_class = true;
      std::string junk;
      if (!(ds >> sla_class) || (ds >> junk))
        fail(lineno, "'class' needs exactly one token");
    } else if (kw == "memcap") {
      if (saw_memcap) fail(lineno, "duplicate 'memcap' directive");
      saw_memcap = true;
      std::string junk;
      if (!(ds >> memory_capacity) || !std::isfinite(memory_capacity) ||
          memory_capacity <= 0 || (ds >> junk))
        fail(lineno, "'memcap' needs one finite value > 0");
    } else if (kw == "mem") {
      if (saw_mem) fail(lineno, "duplicate 'mem' directive");
      saw_mem = true;
      mem_lineno = lineno;
      std::size_t count = 0;
      if (!(ds >> count) || count == 0)
        fail(lineno, "'mem' needs <count> then <count> values");
      // Appended as read, never sized from the declared count: memory
      // follows the record's bytes, not a number it claims.
      while (job_memory.size() < count) {
        double v = 0;
        if (!(ds >> v) || !std::isfinite(v) || v < 0)
          fail(lineno, "'mem' values must be finite and >= 0");
        job_memory.push_back(v);
      }
      std::string junk;
      if (ds >> junk) fail(lineno, "'mem' has trailing junk after its values");
    } else {
      break;  // not a metadata directive; must be the machines line
    }
    if (!next_meaningful(mline)) fail(lineno, "expected 'machines <m>'");
  }

  std::istringstream ms(mline);
  std::string kw;
  procs_t m = 0;
  if (!(ms >> kw >> m) || kw != "machines" || m < 1)
    fail(lineno, "expected 'machines <m>' with m >= 1");

  std::vector<Job> jv;
  std::string jline;
  while (next_meaningful(jline)) {
    std::istringstream js(jline);
    std::string job_kw, kind;
    if (!(js >> job_kw >> kind) || job_kw != "job") fail(lineno, "expected 'job <kind> ...'");
    PtfPtr f;
    try {
      if (kind == "amdahl") {
        double t1, frac;
        if (!(js >> t1 >> frac)) fail(lineno, "amdahl needs <t1> <fraction>");
        f = std::make_shared<AmdahlTime>(t1, frac);
      } else if (kind == "powerlaw") {
        double t1, alpha;
        if (!(js >> t1 >> alpha)) fail(lineno, "powerlaw needs <t1> <alpha>");
        f = std::make_shared<PowerLawTime>(t1, alpha);
      } else if (kind == "comm") {
        double t1, c;
        if (!(js >> t1 >> c)) fail(lineno, "comm needs <t1> <comm_cost>");
        f = std::make_shared<CommOverheadTime>(t1, c);
      } else if (kind == "table") {
        std::size_t k = 0;
        if (!(js >> k) || k == 0) fail(lineno, "table needs <k> values");
        if (static_cast<procs_t>(k) != m)
          fail(lineno, "table length must equal the machine count");
        std::vector<double> values;  // appended as read, like 'mem'
        while (values.size() < k) {
          double v = 0;
          if (!(js >> v)) fail(lineno, "table: too few values");
          values.push_back(v);
        }
        f = std::make_shared<TableTime>(std::move(values));
      } else if (kind == "linred") {
        std::int64_t mm, a;
        if (!(js >> mm >> a)) fail(lineno, "linred needs <machines> <a>");
        if (mm != m) fail(lineno, "linred machine count must equal the instance's");
        f = std::make_shared<LinearReductionTime>(mm, a);
      } else if (kind == "logspeed") {
        double t1;
        if (!(js >> t1)) fail(lineno, "logspeed needs <t1>");
        f = std::make_shared<LogSpeedupTime>(t1);
      } else if (kind == "rigid") {
        double t, penalty;
        procs_t size;
        if (!(js >> t >> size >> penalty)) fail(lineno, "rigid needs <time> <size> <penalty>");
        f = std::make_shared<RigidStepTime>(t, size, penalty);
      } else {
        fail(lineno, "unknown job kind '" + kind + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      fail(lineno, e.what());
    }
    std::string name;
    js >> name;  // optional trailing name
    jv.emplace_back(std::move(f), m, name);
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

Instance from_text(const std::string& text) {
  std::istringstream ss(text);
  return read_instance(ss);
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
  return read_instance(is, std::move(default_name));
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
    std::istringstream ss(text);
    record.instance = read_instance(ss, "stream-" + std::to_string(record.ordinal));
    record.ok = true;
  } catch (const std::exception& e) {
    record.ok = false;
    record.error = e.what();
  }
  return true;
}

}  // namespace moldable::jobs
