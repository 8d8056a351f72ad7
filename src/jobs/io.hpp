// Text serialization of instances — the "compact encoding" made concrete.
//
// Line-oriented format (comments start with '#'):
//
//   moldable-instance v1
//   name <instance name>                    (optional, rest of line)
//   arrival <t>                             (optional, finite t >= 0)
//   class <sla-class>                       (optional, single token)
//   memcap <C>                              (optional, finite C > 0)
//   mem <n> <m_1> ... <m_n>                 (optional, n == job count)
//   machines <m>
//   job amdahl   <t1> <fraction>            [name]
//   job powerlaw <t1> <alpha>               [name]
//   job comm     <t1> <comm_cost>           [name]
//   job table    <k> <t_1> ... <t_k>        [name]
//   job linred   <machines> <a>             [name]
//   job rigid    <time> <size> <penalty>    [name]
//   job logspeed <t1>                       [name]
//
// Tokens are separated by spaces, tabs or CRs, and each field is exactly
// one token, read by util::cli's strict parsers: a count (m, n, k, size,
// machines, a) is decimal digits only; a real is a whole C-syntax number
// and must be finite. A line holds exactly its fields, except that a job
// line may end with one name token; `name` takes the rest of its line.
// Anything else is refused with the line's number.
//
// Closed-form jobs serialize in O(1) space regardless of m — exactly the
// encoding regime the paper's algorithms target. Table jobs are Theta(m)
// by nature and require k == m.
//
// The `name`, `arrival`, `class`, `memcap`, and `mem` directives are
// additive, optional extensions of v1: files without them parse exactly as
// before, so the version token is unchanged; readers predating a directive
// reject files that use it. The metadata directives may appear in any order
// between the header and the `machines` line, at most once each. `arrival`
// (a submission timestamp in arbitrary units) and `class` (an SLA class
// label) carry serving metadata for the stream layer — the algorithms
// ignore both. `memcap` (per-machine memory capacity) and `mem` (one
// footprint per job, count-prefixed) open the memory axis: together they
// constrain job j to allotments k with m_j <= k * C, and only
// memory-aware solver variants accept such instances.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "src/jobs/instance.hpp"

namespace moldable::jobs {

/// Serializes the instance. Throws std::invalid_argument for what the
/// reader could not read back: oracle types outside the catalogue above (no
/// lossy fallback), an instance name with a line break, or a job name with
/// whitespace.
std::string to_text(const Instance& instance);

/// The instance's structural identity: compact bytes of exactly the fields
/// `to_text` writes, with the values it writes, minus the `name` line — a
/// one-byte tag per directive and per job kind, doubles as their raw 8
/// bytes, counts as integers, the job count after `machines`, and every
/// variable-length part (class, `mem`, a table, a job name) after its
/// length. Two instances have equal bytes exactly when their texts are
/// equal once the `name` line is dropped. Never renders text and needs no
/// escaping, so job names `to_text` refuses are encoded too. Returns
/// nullopt only for an oracle type outside the catalogue above.
std::optional<std::string> content_bytes(const Instance& instance);

/// Parses the format; throws std::invalid_argument with a line-numbered
/// message on any syntax or validation error. `default_name` (also on
/// load_instance below) is used as the instance name when the text carries
/// no `name` directive.
Instance from_text(std::string_view text, std::string default_name = {});

/// File convenience wrappers (throw std::runtime_error on I/O failure).
void save_instance(const std::string& path, const Instance& instance);
Instance load_instance(const std::string& path, std::string default_name = {});

/// Per-file record of a directory load, in deterministic (sorted-path)
/// order. Exactly the ok files appear in DirectoryLoad::instances, in the
/// same relative order.
struct LoadedFile {
  std::string path;
  bool ok = false;
  std::string error;  ///< parse/I-O diagnostic when !ok
};

/// Result of load_instances_from_dir: the parsed instances plus a per-file
/// audit trail (replay drivers print the errors and carry on).
struct DirectoryLoad {
  std::vector<Instance> instances;  ///< parse-ok files, sorted-path order
  std::vector<LoadedFile> files;    ///< every regular file seen, same order
  std::size_t loaded = 0;           ///< files.size() with ok == true
  std::size_t skipped = 0;          ///< files.size() with ok == false
};

/// Loads every regular file of `dir` (non-recursive, lexicographically
/// sorted by path so replay batches are deterministic) as a moldable
/// instance. A file that fails to parse is skipped and recorded with its
/// diagnostic — one bad file never aborts the load. Instances with no
/// inline name get the file's stem as their name. Throws std::runtime_error
/// when `dir` does not exist or is not a directory.
DirectoryLoad load_instances_from_dir(const std::string& dir);

/// One record of a concatenated instance stream (see InstanceStreamReader).
struct StreamRecord {
  bool ok = false;
  /// Flush marker (`moldable-flush v1`): not an instance and not an error —
  /// a cut point in the stream. A multiplexing source emits one when every
  /// connected session has drained, telling the serve loop to cut its
  /// reorder buffer into windows NOW instead of waiting for more traffic;
  /// the reader yields one per marker line so a recorded stream replays
  /// with identical window cuts. Flush records consume no ordinal and
  /// never enter any digest.
  bool flush = false;
  std::string error;     ///< parse diagnostic when !ok (line numbers are
                         ///< relative to the record, not the stream)
  std::size_t line = 0;  ///< 1-based stream line where the record starts
  std::size_t ordinal = 0;  ///< 0-based record position in the stream
  /// Opaque routing tag for multiplexing sources (a socket session id, a
  /// shard number). The reader always leaves it 0; the stream engine carries
  /// it untouched from admission to the served-outcome callback and it never
  /// enters any digest.
  std::uint64_t tag = 0;
  Instance instance{{}, 1};  ///< the parsed instance when ok
};

/// Incremental reader over a stream of concatenated instance records — the
/// serve-mode input format. A record starts at a `moldable-instance` header
/// line and runs to the next header (or end of input), so `cat dir/*.inst`
/// is a valid stream. Malformed records are isolated: a record that fails
/// to parse (or a stray non-comment line outside any record) is returned
/// with ok == false and its diagnostic, and reading continues at the next
/// header — one corrupt record never kills the stream. A standalone
/// `moldable-flush v1` line is a flush marker: it terminates the record
/// being collected (like a header does) and is yielded as its own record
/// with `flush == true`, see StreamRecord::flush.
class InstanceStreamReader {
 public:
  explicit InstanceStreamReader(std::istream& is) : is_(&is) {}

  /// Reads the next record. Returns false at end of input (record is left
  /// untouched); otherwise fills `record` and returns true. An unnamed
  /// instance gets "stream-<ordinal>" as its name.
  bool next(StreamRecord& record);

  /// Comment lines seen before the first record header — a traffic
  /// generator's manifest block ('#' prefixes preserved, leading whitespace
  /// stripped). Complete once next() has been called at least once;
  /// comments after the first header belong to record bodies and are
  /// dropped there as before.
  const std::vector<std::string>& preamble() const { return preamble_; }

 private:
  std::istream* is_;
  std::string pending_header_;  ///< lookahead: the next record's header line
  std::size_t pending_line_ = 0;
  bool have_pending_ = false;
  bool pending_flush_ = false;  ///< a marker ended the record just returned
  std::size_t pending_flush_line_ = 0;
  std::size_t lineno_ = 0;
  std::size_t ordinal_ = 0;
  std::vector<std::string> preamble_;
  bool saw_header_ = false;  ///< a first record header ends the preamble
};

}  // namespace moldable::jobs
