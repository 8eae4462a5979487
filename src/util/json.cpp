#include "util/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace mldist::util {

void JsonBuilder::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += quote(k) + ":";
}

JsonBuilder& JsonBuilder::field(const std::string& k, double value) {
  key(k);
  if (std::isfinite(value)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    body_ += buf;
  } else {
    body_ += "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, int value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, const std::string& value) {
  key(k);
  body_ += quote(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonBuilder& JsonBuilder::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

JsonBuilder& JsonBuilder::merge(const JsonBuilder& other) {
  if (other.body_.empty()) return *this;
  if (!body_.empty()) body_ += ",";
  body_ += other.body_;
  return *this;
}

std::string JsonBuilder::array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

std::string JsonBuilder::quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string errno_text() { return std::strerror(errno); }

/// write(2) all of `data` to `fd`, retrying EINTR and short writes.
bool write_fd_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool fsync_fd(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  // Some filesystems reject fsync on directories; treat EINVAL as a no-op
  // rather than a durability failure the caller can do anything about.
  return rc == 0 || errno == EINVAL;
}

}  // namespace

bool fsync_file(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "fsync_file: cannot open " + path + ": " + errno_text();
    }
    return false;
  }
  const bool ok = fsync_fd(fd);
  if (!ok && error != nullptr) {
    *error = "fsync_file: fsync " + path + ": " + errno_text();
  }
  ::close(fd);
  return ok;
}

bool fsync_parent_dir(const std::string& path, std::string* error) {
  const std::filesystem::path p(path);
  std::string dir = p.has_parent_path() ? p.parent_path().string() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "fsync_parent_dir: cannot open " + dir + ": " + errno_text();
    }
    return false;
  }
  const bool ok = fsync_fd(fd);
  if (!ok && error != nullptr) {
    *error = "fsync_parent_dir: fsync " + dir + ": " + errno_text();
  }
  ::close(fd);
  return ok;
}

WriteResult write_json_file(const std::string& path, const std::string& json) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  // Durable atomic publish (the CheckpointManager pattern): write the
  // payload to a sibling tmp file, fsync it so the bytes are on stable
  // storage *before* the rename makes them visible, rename over the
  // destination, then fsync the directory so the rename itself survives a
  // power cut.  Readers and a crashed writer both see either the old
  // artifact or the new one — never a truncated or empty file.
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return {"write_json_file: cannot open " + tmp +
              " for writing: " + errno_text()};
    }
    const std::string payload = json + "\n";
    if (!write_fd_all(fd, payload.data(), payload.size())) {
      const std::string why = errno_text();
      ::close(fd);
      std::filesystem::remove(tmp, ec);
      return {"write_json_file: write to " + tmp + " failed: " + why};
    }
    if (!fsync_fd(fd)) {
      const std::string why = errno_text();
      ::close(fd);
      std::filesystem::remove(tmp, ec);
      return {"write_json_file: fsync " + tmp + " failed: " + why};
    }
    ::close(fd);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return {"write_json_file: rename " + tmp + " -> " + path +
            " failed: " + ec.message()};
  }
  fsync_parent_dir(path);  // best-effort: the rename is already atomic
  return {};
}

WriteResult append_jsonl(const std::string& path, const std::string& line) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  // O_APPEND + one write(2) per record: POSIX guarantees the offset seek
  // and the write are one atomic step, so records from concurrent
  // processes (campaign workers, the supervisor, bench runs) land whole —
  // lines never interleave mid-record.  Pipe-style short writes cannot
  // split a record either: regular-file writes of this size complete in
  // one syscall, and the EINTR/short-write loop below only re-enters for
  // signals, each retry still appending contiguously at EOF only if the
  // first write wrote nothing.
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return {"append_jsonl: cannot open " + path +
            " for append: " + errno_text()};
  }
  const std::string record = line + "\n";
  if (!write_fd_all(fd, record.data(), record.size())) {
    const std::string why = errno_text();
    ::close(fd);
    return {"append_jsonl: write to " + path + " failed: " + why};
  }
  ::close(fd);
  return {};
}

JsonError::JsonError(const std::string& why, std::size_t at, int on_line)
    : std::runtime_error(why + " at line " + std::to_string(on_line) +
                         ", offset " + std::to_string(at)),
      reason(why),
      offset(at),
      line(on_line) {}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  }
}

/// from_chars over all of `raw`: false on a partial parse or out of range.
template <typename T>
bool convert_all(std::string_view raw, T* out) {
  T value{};
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

void JsonReader::fail(const std::string& reason) const {
  throw JsonError(reason, pos_, line_);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '\n') {
      ++line_;
    } else if (c != ' ' && c != '\t' && c != '\r') {
      return;
    }
    ++pos_;
  }
}

void JsonReader::mark() {
  tok_ = pos_;
  tok_line_ = line_;
}

char JsonReader::peek() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

JsonReader::Event JsonReader::next() {
  last_ = step();
  return last_;
}

JsonReader::Event JsonReader::step() {
  skip_ws();
  switch (state_) {
    case State::kValue:
      return value();
    case State::kFirstMember:
      return peek() == '}' ? close(Event::kEndObject) : key();
    case State::kFirstItem:
      return peek() == ']' ? close(Event::kEndArray) : value();
    case State::kColon:
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      return value();
    case State::kAfterValue:
      break;
  }
  if (depth_ == 0) {
    mark();
    if (pos_ == text_.size()) return Event::kEnd;
    fail("trailing content after the JSON value");
  }
  const bool object = in_object_[depth_ - 1];
  const char c = peek();
  if (c == ',') {
    ++pos_;
    skip_ws();
    return object ? key() : value();
  }
  if (c == (object ? '}' : ']')) {
    return close(object ? Event::kEndObject : Event::kEndArray);
  }
  fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
}

JsonReader::Event JsonReader::close(Event e) {
  mark();
  ++pos_;
  --depth_;
  state_ = State::kAfterValue;
  return e;
}

JsonReader::Event JsonReader::key() {
  if (peek() != '"') fail("expected a quoted object key");
  mark();
  string();
  state_ = State::kColon;
  return Event::kKey;
}

JsonReader::Event JsonReader::value() {
  const char c = peek();
  mark();
  if (c == '{' || c == '[') {
    if (depth_ == kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    in_object_[depth_++] = c == '{';
    ++pos_;
    state_ = c == '{' ? State::kFirstMember : State::kFirstItem;
    return c == '{' ? Event::kBeginObject : Event::kBeginArray;
  }
  state_ = State::kAfterValue;
  switch (c) {
    case '"':
      string();
      return Event::kString;
    case 't':
      literal("true");
      return Event::kBool;
    case 'f':
      literal("false");
      return Event::kBool;
    case 'n':
      literal("null");
      return Event::kNull;
    default:
      if (c == '-' || is_digit(c)) {
        number();
        return Event::kNumber;
      }
      fail("unexpected character");
  }
}

void JsonReader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
  pos_ += word.size();
}

void JsonReader::number() {
  const auto digits = [this] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ == from) fail("malformed number");
  };
  if (text_[pos_] == '-') ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '0') {
    ++pos_;
  } else {
    digits();
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    digits();
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    digits();
  }
}

std::uint32_t JsonReader::hex4() {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    const int d = pos_ < text_.size() ? hex_value(text_[pos_]) : -1;
    if (d < 0) fail("bad \\u escape");
    v = (v << 4) | static_cast<std::uint32_t>(d);
    ++pos_;
  }
  return v;
}

void JsonReader::string() {
  str_.clear();
  ++pos_;  // opening quote
  for (;;) {
    const std::size_t run = pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    str_.append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size() || text_[pos_] == '\n') {
      fail("unterminated string");
    }
    const char c = text_[pos_++];
    if (c == '"') return;
    if (c != '\\') {
      --pos_;
      fail("unescaped control character in string");
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': str_ += '"'; break;
      case '\\': str_ += '\\'; break;
      case '/': str_ += '/'; break;
      case 'b': str_ += '\b'; break;
      case 'f': str_ += '\f'; break;
      case 'n': str_ += '\n'; break;
      case 'r': str_ += '\r'; break;
      case 't': str_ += '\t'; break;
      case 'u': {
        std::uint32_t cp = hex4();
        if (cp >= 0xdc00 && cp <= 0xdfff) fail("unpaired surrogate");
        if (cp >= 0xd800 && cp <= 0xdbff) {
          if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate");
          pos_ += 2;
          const std::uint32_t low = hex4();
          if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
          cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        }
        append_utf8(str_, cp);
        break;
      }
      default:
        pos_ -= 2;
        fail("invalid string escape");
    }
  }
}

std::string_view JsonReader::skip() {
  if (last_ == Event::kKey) next();
  const std::size_t begin = tok_;
  if (last_ == Event::kBeginObject || last_ == Event::kBeginArray) {
    for (const int outer = depth_ - 1; depth_ > outer;) next();
  }
  return text_.substr(begin, pos_ - begin);
}

bool json_u64(std::string_view raw, std::uint64_t* out) {
  return convert_all(raw, out);
}

bool json_int(std::string_view raw, int* out) { return convert_all(raw, out); }

bool json_double(std::string_view raw, double* out) {
  return convert_all(raw, out);
}

JsonMembers::JsonMembers(std::string_view object) {
  JsonReader r(object);
  if (r.next() != JsonReader::Event::kBeginObject) {
    throw JsonError("expected a JSON object", r.offset(), r.line());
  }
  while (r.next() == JsonReader::Event::kKey) {
    std::string key = r.str();
    members_.emplace_back(std::move(key), r.skip());
  }
  r.next();  // kEnd, or JsonError on trailing content
}

std::optional<std::string_view> JsonMembers::find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return value;
  }
  return std::nullopt;
}

bool JsonMembers::string(std::string_view key, std::string* out) const {
  const auto value = find(key);
  if (!value || value->front() != '"') return false;
  JsonReader r(*value);
  r.next();
  *out = r.str();
  return true;
}

bool JsonMembers::u64(std::string_view key, std::uint64_t* out) const {
  const auto value = find(key);
  return value && json_u64(*value, out);
}

bool json_validate(std::string_view text, std::string* error) {
  try {
    JsonReader r(text);
    r.next();
    r.skip();
    r.next();  // kEnd, or JsonError on trailing content
    return true;
  } catch (const JsonError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace mldist::util
