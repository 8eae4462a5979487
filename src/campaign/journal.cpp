#include "campaign/journal.hpp"

#include <fstream>
#include <optional>

#include "util/json.hpp"

namespace mldist::campaign {

namespace {

/// `json`'s top-level members; nullopt unless it is one complete object
/// (a torn WAL line is not).
std::optional<util::JsonMembers> members_of(const std::string& json) {
  try {
    return util::JsonMembers(json);
  } catch (const util::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace

bool extract_json_string(const std::string& json, const std::string& key,
                         std::string& out) {
  const auto members = members_of(json);
  return members && members->string(key, &out);
}

bool extract_json_u64(const std::string& json, const std::string& key,
                      std::uint64_t& out) {
  const auto members = members_of(json);
  return members && members->u64(key, &out);
}

bool extract_json_object(const std::string& json, const std::string& key,
                         std::string& out) {
  const auto members = members_of(json);
  const auto value = members ? members->find(key) : std::nullopt;
  if (!value || value->front() != '{') return false;
  out.assign(*value);
  return true;
}

JournalState replay_journal(const std::string& path) {
  JournalState state;
  std::ifstream in(path);
  if (!in) return state;
  std::string line;
  while (std::getline(in, line)) {
    const auto record = members_of(line);
    std::string event;
    if (!record || !record->string("event", &event)) continue;
    if (event == "start") {
      state.saw_start = true;
      record->string("grid", &state.grid_crc);
      continue;
    }
    std::string cell;
    if (!record->string("cell", &cell)) continue;
    if (event == "trained") {
      std::string train;
      if (record->string("train", &train)) {
        state.trained[cell] = std::move(train);
      }
    } else if (event == "done") {
      const auto payload = record->find("payload");
      if (payload && payload->front() == '{') {
        const auto telemetry = record->find("telemetry");
        state.done_payload[cell] = std::string(*payload);
        state.done_telemetry[cell] = telemetry && telemetry->front() == '{'
                                         ? std::string(*telemetry)
                                         : std::string();
        state.trained.erase(cell);
        state.failed.erase(cell);
      }
    } else if (event == "failed") {
      state.failed.insert(cell);
    }
  }
  return state;
}

}  // namespace mldist::campaign
