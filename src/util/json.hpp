// JSON for the whole repo: JsonBuilder writes it, JsonReader reads it.
//
// Emission nests by composition: build the child with its own JsonBuilder
// and attach it with raw().  Every input the repo reads back (spec files,
// the campaign WAL, /v1/classify bodies, trace lanes, bench history) goes
// through the one pull reader below (DESIGN.md §14, "JSON reading").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mldist::util {

class JsonBuilder {
 public:
  JsonBuilder& field(const std::string& key, double value);
  JsonBuilder& field(const std::string& key, std::uint64_t value);
  JsonBuilder& field(const std::string& key, int value);
  JsonBuilder& field(const std::string& key, bool value);
  JsonBuilder& field(const std::string& key, const std::string& value);
  JsonBuilder& field(const std::string& key, const char* value);
  /// Attach pre-rendered JSON (an object or array) under `key`.
  JsonBuilder& raw(const std::string& key, const std::string& json);
  /// Splice another builder's fields into this object, preserving order.
  /// The caller guarantees key uniqueness across the two (duplicate keys
  /// are legal JSON but ambiguous to consumers).
  JsonBuilder& merge(const JsonBuilder& other);

  /// The finished object, e.g. {"a":1,"b":"x"}.
  std::string str() const { return "{" + body_ + "}"; }

  /// Render a list of pre-rendered JSON values as an array.
  static std::string array(const std::vector<std::string>& items);
  /// Quote and escape a string as a JSON value.
  static std::string quote(const std::string& s);

 private:
  void key(const std::string& k);

  std::string body_;
};

/// Outcome of write_json_file: converts to true on success, otherwise
/// `error` describes what failed (paths included) for logs and reports.
struct WriteResult {
  std::string error;
  explicit operator bool() const { return error.empty(); }
};

/// Write `json` to `path` (one line, trailing newline), creating parent
/// directories.  Crash-safe: the payload goes to "<path>.tmp", is fsync'd,
/// and is atomically renamed over `path` (the tmp+rename pattern of
/// core::CheckpointManager) with the parent directory fsync'd after the
/// rename — a crash or power loss mid-write leaves the previous artifact,
/// never a torn or vanished results/BENCH_*.json.
WriteResult write_json_file(const std::string& path, const std::string& json);

/// Append one line to a JSONL file (results/history.jsonl, the campaign
/// WAL), creating parent directories.  Multi-process safe: the file is
/// opened with O_APPEND and the record (line + '\n') is issued as a single
/// write(2), so concurrent workers appending to the same history never
/// interleave partial lines — every line in the file is one complete
/// record from one writer.  The tmp+rename dance would clobber earlier
/// lines, which is exactly wrong for an append-only history.
WriteResult append_jsonl(const std::string& path, const std::string& line);

/// fsync `path`'s contents to stable storage.  Returns false (with errno
/// text in `error` when non-null) on failure.  Durable-write helper shared
/// by write_json_file and core::CheckpointManager.
bool fsync_file(const std::string& path, std::string* error = nullptr);

/// fsync the directory containing `path`, making a rename into it durable.
bool fsync_parent_dir(const std::string& path, std::string* error = nullptr);

/// Every JSON reading failure: what went wrong and where — the byte offset
/// and 1-based line of the offending byte.  what() carries all three.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& reason, std::size_t offset, int line);

  std::string reason;
  std::size_t offset;
  int line;
};

/// Pull reader over one RFC 8259 JSON text.  It builds no DOM: next()
/// yields one event per token, and only the current key or string is
/// decoded (every escape, surrogate pairs included, to UTF-8).  Numbers
/// stay raw text for the checked json_u64/json_int/json_double below.
/// Nesting deeper than kMaxDepth containers, whitespace outside the four
/// JSON ones, and anything after the top-level value are errors.
class JsonReader {
 public:
  enum class Event {
    kBeginObject, kEndObject, kBeginArray, kEndArray,
    kKey, kString, kNumber, kBool, kNull,
    kEnd,  ///< the top-level value is complete and only whitespace follows
  };
  static constexpr int kMaxDepth = 256;

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The next event; kEnd again once the input is done.  Throws JsonError.
  Event next();
  /// Finish the value whose first event next() just returned (after kKey:
  /// the member's whole value) and return its raw bytes, verbatim.
  std::string_view skip();

  /// Decoded text of the last kKey or kString.
  const std::string& str() const { return str_; }
  /// Raw bytes of the last token: a number's text, a string with its
  /// quotes and escapes, a literal ("true" for a true kBool), or one
  /// bracket.
  std::string_view raw() const { return text_.substr(tok_, pos_ - tok_); }
  /// Byte offset and 1-based line where the last token starts.
  std::size_t offset() const { return tok_; }
  int line() const { return tok_line_; }

 private:
  enum class State { kValue, kFirstMember, kFirstItem, kColon, kAfterValue };

  Event step();
  Event value();
  Event key();
  Event close(Event e);
  void mark();
  void skip_ws();
  char peek();
  void string();
  void number();
  void literal(std::string_view word);
  std::uint32_t hex4();
  [[noreturn]] void fail(const std::string& reason) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t tok_ = 0;
  int tok_line_ = 1;
  State state_ = State::kValue;
  Event last_ = Event::kEnd;
  int depth_ = 0;
  std::array<bool, kMaxDepth> in_object_{};  ///< per open container
  std::string str_;
};

/// Checked conversions of a number's raw text: false unless all of `raw`
/// is a number in range of the type (u64 and int take integers only).
bool json_u64(std::string_view raw, std::uint64_t* out);
bool json_int(std::string_view raw, int* out);
bool json_double(std::string_view raw, double* out);

/// The top-level members of one JSON object, keys decoded and values kept
/// as raw byte spans into the text (which must outlive this).  Throws
/// JsonError unless the text is exactly one complete object.
class JsonMembers {
 public:
  explicit JsonMembers(std::string_view object);

  /// Raw bytes of the first member named `key`; nullopt when absent.
  std::optional<std::string_view> find(std::string_view key) const;
  /// The decoded string / checked u64 member `key`.  False (and `out`
  /// untouched) when absent or of another type.
  bool string(std::string_view key, std::string* out) const;
  bool u64(std::string_view key, std::uint64_t* out) const;

 private:
  std::vector<std::pair<std::string, std::string_view>> members_;
};

/// True when `text` is exactly one JSON value; otherwise false with the
/// JsonError text (reason, line, offset) in `error`.
bool json_validate(std::string_view text, std::string* error = nullptr);

}  // namespace mldist::util
