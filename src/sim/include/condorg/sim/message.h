// Messages exchanged over the simulated network.
//
// A message is addressed "host/service" and carries a type tag plus a flat
// string map payload. Protocol layers (GRAM, GASS, MDS, GSI) serialize their
// fields into the payload; keeping it a string map makes every message
// loggable and keeps the network layer protocol-agnostic.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "condorg/util/strings.h"

namespace condorg::sim {

/// "host/service" address. Host names must not contain '/'.
struct Address {
  std::string host;
  std::string service;

  std::string str() const { return host + "/" + service; }
  static Address parse(const std::string& text);
  bool operator==(const Address&) const = default;
};

class Payload {
 public:
  void set(const std::string& key, std::string value) {
    fields_[key] = std::move(value);
  }
  void set_int(const std::string& key, std::int64_t value) {
    fields_[key] = std::to_string(value);
  }
  void set_uint(const std::string& key, std::uint64_t value) {
    fields_[key] = std::to_string(value);
  }
  void set_double(const std::string& key, double value) {
    fields_[key] = util::format_double(value);
  }
  void set_bool(const std::string& key, bool value) {
    // Delegating to set() keeps the assignment on the std::string move path;
    // the const char* operator= path trips GCC 12's -Wrestrict false
    // positive (PR105329) once inlined into message handlers.
    set(key, value ? "1" : "0");
  }

  bool has(const std::string& key) const { return fields_.count(key) > 0; }

  std::string get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = fields_.find(key);
    return it == fields_.end() ? fallback : it->second;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback = 0) const;
  std::uint64_t get_uint(const std::string& key,
                         std::uint64_t fallback = 0) const;
  double get_double(const std::string& key, double fallback = 0.0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::map<std::string, std::string>& fields() const { return fields_; }
  std::string debug_string() const;

  /// Flat serialization for stable-storage records (keys/values must not
  /// contain the 0x1f/0x1e separators; protocol fields never do).
  std::string serialize() const;
  static Payload deserialize(const std::string& text);

 private:
  std::map<std::string, std::string> fields_;
};

struct Message {
  Address from;
  Address to;
  std::string type;
  Payload body;
  /// Approximate wire size, used for bandwidth modelling of bulk transfers.
  std::uint64_t size_bytes = 512;
};

}  // namespace condorg::sim
