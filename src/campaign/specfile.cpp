#include "campaign/specfile.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/targets.hpp"
#include "util/json.hpp"

namespace mldist::campaign {

SpecError::SpecError(const std::string& origin, int line,
                     const std::string& message)
    : std::invalid_argument(origin + ":" + std::to_string(line) + ": " +
                            message),
      line_(line) {}

namespace {

using Event = util::JsonReader::Event;

const char* kind_name(Event kind) {
  switch (kind) {
    case Event::kNull: return "null";
    case Event::kBool: return "a boolean";
    case Event::kNumber: return "a number";
    case Event::kString: return "a string";
    case Event::kBeginArray: return "an array";
    case Event::kBeginObject: return "an object";
    default: return "a value";
  }
}

/// One value as the mapper meets it: its first event (a scalar is then
/// the reader's current token) and the line its errors point at.
struct Value {
  Event kind;
  int line;
};

// ---------------------------------------------------------------------------
// Schema mapping, streamed straight off the reader
// ---------------------------------------------------------------------------

class Mapper {
 public:
  Mapper(const std::string& text, const std::string& origin)
      : r_(text), origin_(origin) {}

  CampaignSpec map() {
    const Value root = item();
    require(root, Event::kBeginObject, "spec");
    CampaignSpec spec;
    std::string key;
    while (const auto v = member(key)) {
      if (key == "name") {
        spec.name = as_string(*v, key);
      } else if (key == "seed") {
        spec.seed = as_u64(*v, key);
      } else if (key == "defaults") {
        map_defaults(*v, spec.base);
      } else if (key == "grid") {
        each(*v, key, [&](const Value& b) {
          spec.blocks.push_back(map_block(b));
        });
      } else {
        unknown_key(*v, key, "the spec",
                    "name, seed, defaults, grid");
      }
    }
    r_.next();  // kEnd, or JsonError on trailing content
    if (spec.blocks.empty()) {
      throw SpecError(origin_, root.line,
                      "spec needs a non-empty \"grid\" array");
    }
    validate(spec);
    return spec;
  }

 private:
  /// The next array item (or the kEndArray closing the array).
  Value item() {
    const Event kind = r_.next();
    return {kind, r_.line()};
  }

  /// The next member of the current object, its key in `key`; nullopt at
  /// the object's end.  A scalar's errors point at its key's line.
  std::optional<Value> member(std::string& key) {
    if (r_.next() != Event::kKey) return std::nullopt;
    key = r_.str();
    const int key_line = r_.line();
    const Value v = item();
    const bool container =
        v.kind == Event::kBeginObject || v.kind == Event::kBeginArray;
    return Value{v.kind, container ? v.line : key_line};
  }

  template <typename Fn>
  void each(const Value& v, const std::string& key, Fn&& fn) {
    require(v, Event::kBeginArray, key);
    for (Value it = item(); it.kind != Event::kEndArray; it = item()) fn(it);
  }

  [[noreturn]] void unknown_key(const Value& v, const std::string& key,
                                const std::string& where,
                                const char* known) const {
    throw SpecError(origin_, v.line,
                    "unknown key \"" + key + "\" in " + where +
                        " (known keys: " + known + ")");
  }

  void require(const Value& v, Event kind, const std::string& key) const {
    if (v.kind == kind) return;
    throw SpecError(origin_, v.line,
                    "\"" + key + "\" must be " + kind_name(kind) + ", got " +
                        kind_name(v.kind));
  }

  std::string as_string(const Value& v, const std::string& key) const {
    require(v, Event::kString, key);
    return r_.str();
  }

  std::uint64_t as_u64(const Value& v, const std::string& key) const {
    // Accept JSON integers and (for masks) hex strings like "0x40".
    if (v.kind == Event::kNumber) {
      const std::string raw(r_.raw());
      if (raw.find_first_of(".eE-") != std::string::npos) {
        throw SpecError(origin_, v.line,
                        "\"" + key + "\" must be a non-negative integer, got " +
                            raw);
      }
      std::uint64_t out = 0;
      if (!util::json_u64(raw, &out)) {
        throw SpecError(origin_, v.line,
                        "\"" + key + "\" is out of range: " + raw);
      }
      return out;
    }
    if (v.kind != Event::kString) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" must be an integer or a hex string, "
                      "got " + std::string(kind_name(v.kind)));
    }
    const std::string& raw = r_.str();
    char* end = nullptr;
    const std::uint64_t out = std::strtoull(raw.c_str(), &end, 0);
    if (raw.empty() || end == nullptr || *end != '\0') {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is not a valid integer: \"" + raw +
                          "\"");
    }
    return out;
  }

  int as_int(const Value& v, const std::string& key) const {
    require(v, Event::kNumber, key);
    const std::string raw(r_.raw());
    if (raw.find_first_of(".eE") != std::string::npos) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" must be an integer, got " + raw);
    }
    // Checked parse (parse-time-validation contract): out-of-int-range
    // values are rejected here with the spec file:line, never truncated.
    int out = 0;
    if (!util::json_int(raw, &out)) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is out of integer range: " + raw);
    }
    return out;
  }

  double as_double(const Value& v, const std::string& key) const {
    require(v, Event::kNumber, key);
    double out = 0.0;
    if (!util::json_double(r_.raw(), &out) || !std::isfinite(out)) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is out of range: " +
                          std::string(r_.raw()));
    }
    return out;
  }

  std::vector<std::uint64_t> as_diff_set(const Value& v,
                                         const std::string& key) {
    std::vector<std::uint64_t> out;
    each(v, key, [&](const Value& it) { out.push_back(as_u64(it, key)); });
    return out;
  }

  void map_defaults(const Value& v, core::ExperimentConfig& base) {
    require(v, Event::kBeginObject, "defaults");
    std::string key;
    while (const auto o = member(key)) {
      const Value& m = *o;
      if (key == "target") base.target = as_string(m, key);
      else if (key == "rounds") base.rounds = as_int(m, key);
      else if (key == "arch") base.arch = as_string(m, key);
      else if (key == "diff_site") base.diff_site = as_string(m, key);
      else if (key == "diffs") base.diffs = as_diff_set(m, key);
      else if (key == "epochs") base.epochs = as_int(m, key);
      else if (key == "batch_size") base.batch_size = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "learning_rate") base.learning_rate = static_cast<float>(as_double(m, key));
      else if (key == "validation_fraction") base.validation_fraction = as_double(m, key);
      else if (key == "z_threshold") base.z_threshold = as_double(m, key);
      else if (key == "threads") base.threads = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "offline_base_inputs") base.offline_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "online_base_inputs") base.online_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "games") base.games = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "max_retries") base.max_retries = as_int(m, key);
      else if (key == "lr_backoff") base.lr_backoff = static_cast<float>(as_double(m, key));
      else {
        unknown_key(m, key, "defaults",
                    "target, rounds, arch, diff_site, diffs, epochs, "
                    "batch_size, learning_rate, validation_fraction, "
                    "z_threshold, threads, offline_base_inputs, "
                    "online_base_inputs, games, max_retries, lr_backoff");
      }
    }
  }

  CellOverrides map_overrides(const Value& v) {
    require(v, Event::kBeginObject, "overrides");
    CellOverrides o;
    std::string key;
    while (const auto mv = member(key)) {
      const Value& m = *mv;
      if (key == "epochs") o.epochs = as_int(m, key);
      else if (key == "batch_size") o.batch_size = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "learning_rate") o.learning_rate = static_cast<float>(as_double(m, key));
      else if (key == "validation_fraction") o.validation_fraction = as_double(m, key);
      else if (key == "z_threshold") o.z_threshold = as_double(m, key);
      else if (key == "online_base_inputs") o.online_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "games") o.games = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "max_retries") o.max_retries = as_int(m, key);
      else {
        unknown_key(m, key, "overrides",
                    "epochs, batch_size, learning_rate, "
                    "validation_fraction, z_threshold, online_base_inputs, "
                    "games, max_retries");
      }
    }
    return o;
  }

  GridBlock map_block(const Value& v) {
    require(v, Event::kBeginObject, "grid block");
    GridBlock block;
    std::string key;
    while (const auto mv = member(key)) {
      const Value& m = *mv;
      if (key == "targets") {
        each(m, key, [&](const Value& it) {
          block.targets.push_back(as_string(it, key));
        });
      } else if (key == "rounds") {
        each(m, key, [&](const Value& it) {
          block.rounds.push_back(as_int(it, key));
        });
      } else if (key == "archs") {
        each(m, key, [&](const Value& it) {
          block.archs.push_back(as_string(it, key));
        });
      } else if (key == "diff_sites") {
        each(m, key, [&](const Value& it) {
          const std::string site = as_string(it, key);
          try {
            core::parse_diff_site(site);
          } catch (const std::invalid_argument& e) {
            throw SpecError(origin_, it.line, e.what());
          }
          block.diff_sites.push_back(site);
        });
      } else if (key == "diff_sets") {
        each(m, key, [&](const Value& it) {
          block.diff_sets.push_back(as_diff_set(it, key));
        });
      } else if (key == "offline_base_inputs") {
        each(m, key, [&](const Value& it) {
          block.offline_budgets.push_back(
              static_cast<std::size_t>(as_u64(it, key)));
        });
      } else if (key == "overrides") {
        block.overrides = map_overrides(m);
      } else {
        unknown_key(m, key, "a grid block",
                    "targets, rounds, archs, diff_sites, diff_sets, "
                    "offline_base_inputs, overrides");
      }
    }
    return block;
  }

  void validate(const CampaignSpec& spec) const {
    // Instantiating every cell's target catches unknown target names, bad
    // diff sites and out-of-range rounds/diffs before any worker forks.
    for (const Cell& cell : expand_grid(spec)) {
      try {
        (void)cell.config.make_target();
      } catch (const std::invalid_argument& e) {
        throw SpecError(origin_, 1,
                        "cell " + std::to_string(cell.index) + " (" +
                            cell.config.target + "/" +
                            std::to_string(cell.config.rounds) + "r, " +
                            cell.config.diff_site + "): " + e.what());
      }
    }
  }

  util::JsonReader r_;
  const std::string& origin_;
};

}  // namespace

CampaignSpec parse_spec_text(const std::string& text,
                             const std::string& origin) {
  try {
    return Mapper(text, origin).map();
  } catch (const util::JsonError& e) {
    throw SpecError(origin, e.line, e.reason);
  }
}

CampaignSpec load_spec_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("campaign: cannot read spec file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_spec_text(buf.str(), path);
}

}  // namespace mldist::campaign
