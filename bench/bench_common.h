// Shared harness for the table/figure reproduction benches.
//
// Every bench binary regenerates one paper table or figure from a shared
// full-window world (built once per process) and prints paper-reported
// values alongside measured ones. Absolute magnitudes are scaled (~1/100 of
// the paper's event volume, ~1/1000 of its namespace); the reproduction
// target is the *shape*: orderings, shares, ratios, crossovers.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/table.h"
#include "query/snapshot.h"
#include "sim/scenario.h"

namespace dosm::bench {

/// The default full-window scenario used by all reproduction benches.
inline sim::ScenarioConfig default_config() {
  sim::ScenarioConfig config;
  config.seed = 20170301;
  return config;  // paper window (731 days), default scale
}

/// Builds (once) and returns the shared world.
inline const sim::World& shared_world() {
  static const std::unique_ptr<sim::World> world = [] {
    std::cerr << "[bench] building 731-day world (this runs once)...\n";
    auto w = sim::build_world(default_config());
    std::cerr << "[bench] world ready: " << w->store.size() << " events, "
              << w->dns.num_domains() << " domains\n";
    return w;
  }();
  return *world;
}

/// The query snapshot over the shared world (built once): the executor the
/// counting rollups (Table 1, Figures 1 and 5, Table 4) run on.
inline const query::Snapshot& shared_snapshot() {
  static const auto snapshot = [] {
    const auto& world = shared_world();
    return query::Snapshot::build(
        world.store.window(), world.store.events(),
        {world.population.pfx2as(), world.population.geo()});
  }();
  return *snapshot;
}

/// Prints the standard bench header.
inline void print_header(const std::string& experiment,
                         const std::string& paper_claim) {
  std::cout << "=====================================================\n";
  std::cout << experiment << "\n";
  std::cout << "Paper: " << paper_claim << "\n";
  std::cout << "=====================================================\n";
}

// ---------------------------------------------------------------------------
// Machine-readable bench baselines.
//
// Benches that feed CI regression checks emit a BENCH_<name>.json next to
// their text report. JsonValue is the minimal ordered value tree needed for
// that — objects keep insertion order so baselines diff cleanly run-to-run.
// ---------------------------------------------------------------------------

class JsonValue {
 public:
  JsonValue() : kind_(Kind::kObject) {}  // default-constructed = empty object

  static JsonValue number(double v) {
    JsonValue j(Kind::kNumber);
    j.number_ = v;
    return j;
  }
  static JsonValue integer(std::uint64_t v) {
    JsonValue j(Kind::kInteger);
    j.integer_ = v;
    return j;
  }
  static JsonValue string(std::string v) {
    JsonValue j(Kind::kString);
    j.string_ = std::move(v);
    return j;
  }
  static JsonValue boolean(bool v) {
    JsonValue j(Kind::kBool);
    j.bool_ = v;
    return j;
  }
  static JsonValue array() { return JsonValue(Kind::kArray); }

  /// Sets a member (this value must be an object). Returns *this to chain.
  JsonValue& set(const std::string& key, JsonValue value) {
    if (kind_ != Kind::kObject)
      throw std::logic_error("JsonValue::set on non-object");
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  JsonValue& set(const std::string& key, double v) {
    return set(key, number(v));
  }
  JsonValue& set(const std::string& key, std::uint64_t v) {
    return set(key, integer(v));
  }
  JsonValue& set(const std::string& key, const std::string& v) {
    return set(key, string(v));
  }
  JsonValue& set(const std::string& key, const char* v) {
    return set(key, string(v));
  }
  JsonValue& set(const std::string& key, bool v) {
    return set(key, boolean(v));
  }

  /// Appends an element (this value must be an array). Returns *this.
  JsonValue& push(JsonValue value) {
    if (kind_ != Kind::kArray)
      throw std::logic_error("JsonValue::push on non-array");
    items_.push_back(std::move(value));
    return *this;
  }

  std::string dump(int indent = 2) const {
    std::ostringstream out;
    write(out, indent, 0);
    return out.str();
  }

 private:
  enum class Kind { kObject, kArray, kString, kNumber, kInteger, kBool };

  explicit JsonValue(Kind kind) : kind_(kind) {}

  static void write_escaped(std::ostream& out, const std::string& s) {
    out << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        default: out << c;
      }
    }
    out << '"';
  }

  void write(std::ostream& out, int indent, int depth) const {
    const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
    switch (kind_) {
      case Kind::kObject: {
        if (members_.empty()) {
          out << "{}";
          return;
        }
        out << "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out << pad;
          write_escaped(out, members_[i].first);
          out << ": ";
          members_[i].second.write(out, indent, depth + 1);
          out << (i + 1 < members_.size() ? ",\n" : "\n");
        }
        out << close_pad << "}";
        return;
      }
      case Kind::kArray: {
        if (items_.empty()) {
          out << "[]";
          return;
        }
        out << "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          out << pad;
          items_[i].write(out, indent, depth + 1);
          out << (i + 1 < items_.size() ? ",\n" : "\n");
        }
        out << close_pad << "]";
        return;
      }
      case Kind::kString: write_escaped(out, string_); return;
      case Kind::kNumber: {
        std::ostringstream num;
        num.precision(6);
        num << number_;
        const std::string text = num.str();
        out << text;
        // Keep numbers valid JSON (no bare "inf"/"nan" from ostream).
        if (text.find_first_not_of("0123456789+-.eE") != std::string::npos)
          throw std::logic_error("non-finite number in bench JSON");
        return;
      }
      case Kind::kInteger: out << integer_; return;
      case Kind::kBool: out << (bool_ ? "true" : "false"); return;
    }
  }

  Kind kind_;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> items_;
  std::string string_;
  double number_ = 0.0;
  std::uint64_t integer_ = 0;
  bool bool_ = false;
};

/// Writes the baseline JSON (trailing newline included) and logs the path.
inline void write_json(const std::string& path, const JsonValue& root) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << root.dump() << "\n";
  std::cerr << "[bench] wrote " << path << "\n";
}

}  // namespace dosm::bench
