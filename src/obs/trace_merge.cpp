#include "obs/trace_merge.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/manifest.hpp"
#include "util/json.hpp"

namespace mldist::obs {

namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return static_cast<bool>(in);
}

/// Microseconds with the sub-µs kept as three decimals — the same rendering
/// obs/trace uses, so a merged file round-trips through another merge.
std::string us_string(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

/// A "ts" as obs/trace writes it (microseconds, at most three decimals) in
/// ns.  False on any other shape or when it does not fit a u64.
bool ts_to_ns(std::string_view raw, std::uint64_t* ns) {
  const std::size_t dot = raw.find('.');
  std::uint64_t us = 0;
  if (!util::json_u64(raw.substr(0, dot), &us)) return false;
  std::uint64_t frac = 0;
  if (dot != std::string_view::npos) {
    const std::string_view digits = raw.substr(dot + 1);
    if (digits.size() > 3 || !util::json_u64(digits, &frac)) return false;
    for (std::size_t k = digits.size(); k < 3; ++k) frac *= 10;
  }
  if (us > (UINT64_MAX - frac) / 1000) return false;
  *ns = us * 1000 + frac;
  return true;
}

/// One non-metadata event row: its verbatim bytes and where its "pid" and
/// "ts" values sit in them (length 0: the member is absent).
struct TraceRow {
  std::string text;
  std::size_t pid_at = 0;
  std::size_t pid_len = 0;
  std::size_t ts_at = 0;
  std::size_t ts_len = 0;
  std::uint64_t ts_ns = 0;
};

struct ParsedLane {
  std::string label;                 ///< input file stem, lane display name
  std::uint64_t epoch_ns = 0;        ///< otherData.trace_epoch_ns
  std::uint64_t dropped = 0;         ///< otherData.dropped_events
  std::vector<TraceRow> events;
};

/// Extract the event rows and otherData fields of one obs/trace file.
bool parse_trace_file(const std::string& path, ParsedLane& lane,
                      std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = path + ": " + why;
    return false;
  };
  std::string text;
  if (!read_file(path, text)) return fail("unreadable");
  try {
    const util::JsonMembers doc(text);
    const auto events = doc.find("traceEvents");
    if (!events || events->front() != '[') return fail("no traceEvents array");
    const auto other = doc.find("otherData");
    if (!other || other->front() != '{') return fail("no otherData object");
    const util::JsonMembers other_data(*other);
    if (!other_data.u64("trace_epoch_ns", &lane.epoch_ns)) {
      return fail("no valid otherData.trace_epoch_ns");
    }
    other_data.u64("dropped_events", &lane.dropped);  // optional
    util::JsonReader r(*events);
    r.next();  // kBeginArray
    for (auto e = r.next(); e != util::JsonReader::Event::kEndArray;
         e = r.next()) {
      const std::string_view row = r.skip();
      if (e != util::JsonReader::Event::kBeginObject) continue;
      const util::JsonMembers fields(row);
      std::string ph;
      // Metadata rows are re-authored per lane by the merger.
      if (fields.string("ph", &ph) && ph == "M") continue;
      TraceRow out{std::string(row)};
      std::uint64_t pid = 0;
      if (const auto v = fields.find("pid")) {
        if (!util::json_u64(*v, &pid)) return fail("invalid event pid");
        out.pid_at = static_cast<std::size_t>(v->data() - row.data());
        out.pid_len = v->size();
      }
      if (const auto v = fields.find("ts")) {
        // The rebased ts is at most epoch + ts: it must fit a u64 too.
        if (!ts_to_ns(*v, &out.ts_ns) ||
            out.ts_ns > UINT64_MAX - lane.epoch_ns) {
          return fail("invalid event ts");
        }
        out.ts_at = static_cast<std::size_t>(v->data() - row.data());
        out.ts_len = v->size();
      }
      lane.events.push_back(std::move(out));
    }
  } catch (const util::JsonError& e) {
    return fail(e.what());
  }
  std::string stem = fs::path(path).filename().string();
  if (const std::size_t dot = stem.find(".trace.json");
      dot != std::string::npos) {
    stem.resize(dot);
  }
  lane.label = stem;
  return true;
}

/// Rewrite one event row for its lane: "pid" becomes the lane number and
/// "ts" is shifted from the file's local epoch onto the common one.  The
/// new values are spliced in at the old values' spans, later span first so
/// the earlier offset stays valid; every other byte is kept.
std::string rebase_event(const TraceRow& row, std::size_t lane,
                         std::uint64_t offset_ns) {
  std::string out = row.text;
  const auto splice_ts = [&] {
    if (row.ts_len != 0 && offset_ns != 0) {
      out.replace(row.ts_at, row.ts_len, us_string(row.ts_ns + offset_ns));
    }
  };
  const auto splice_pid = [&] {
    if (row.pid_len != 0) {
      out.replace(row.pid_at, row.pid_len, std::to_string(lane));
    }
  };
  if (row.ts_at > row.pid_at) {
    splice_ts();
    splice_pid();
  } else {
    splice_pid();
    splice_ts();
  }
  return out;
}

}  // namespace

std::vector<std::string> list_trace_files(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    if (name.rfind("worker-", 0) == 0 &&
        name.size() >= 11 && name.compare(name.size() - 11, 11,
                                          ".trace.json") == 0) {
      files.push_back(de.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool merge_trace_files(const std::vector<std::string>& inputs,
                       const std::string& output, TraceMergeResult* result,
                       std::string* error) {
  std::vector<ParsedLane> lanes;
  std::string first_error;
  for (const std::string& path : inputs) {
    ParsedLane lane;
    std::string lane_error;
    if (parse_trace_file(path, lane, &lane_error)) {
      lanes.push_back(std::move(lane));
    } else if (first_error.empty()) {
      first_error = lane_error;
    }
  }
  if (lanes.empty()) {
    if (error != nullptr) {
      *error = first_error.empty() ? "trace merge: no input files"
                                   : first_error;
    }
    return false;
  }

  std::uint64_t epoch = lanes.front().epoch_ns;
  for (const ParsedLane& lane : lanes) epoch = std::min(epoch, lane.epoch_ns);

  std::vector<std::string> rows;
  std::uint64_t dropped = 0;
  std::size_t events = 0;
  for (std::size_t n = 0; n < lanes.size(); ++n) {
    const ParsedLane& lane = lanes[n];
    const std::size_t pid = n + 1;
    util::JsonBuilder meta;
    meta.field("name", "process_name")
        .field("ph", "M")
        .field("pid", static_cast<std::uint64_t>(pid));
    util::JsonBuilder meta_args;
    meta_args.field("name", lane.label);
    meta.raw("args", meta_args.str());
    rows.push_back(meta.str());
    const std::uint64_t offset = lane.epoch_ns - epoch;
    for (const TraceRow& row : lane.events) {
      rows.push_back(rebase_event(row, pid, offset));
    }
    dropped += lane.dropped;
    events += lane.events.size();
  }

  util::JsonBuilder other;
  other.field("dropped_events", dropped)
      .field("lanes", static_cast<std::uint64_t>(lanes.size()))
      .field("trace_epoch_ns", epoch)
      .raw("manifest", RunManifest::current().to_json());
  util::JsonBuilder doc;
  doc.raw("traceEvents", util::JsonBuilder::array(rows))
      .field("displayTimeUnit", "ms")
      .raw("otherData", other.str());
  const util::WriteResult written = util::write_json_file(output, doc.str());
  if (!written) {
    if (error != nullptr) *error = written.error;
    return false;
  }
  if (result != nullptr) {
    result->lanes = lanes.size();
    result->events = events;
    result->dropped = dropped;
    result->epoch_ns = epoch;
  }
  return true;
}

}  // namespace mldist::obs
