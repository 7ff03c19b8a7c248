#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/metadata_catalog.hpp"

namespace ff::stream {

/// A field value inside a stream record. The small closed set mirrors what
/// high-performance binary event systems (FFS/EVPath lineage, paper refs
/// [33]-[36]) marshal natively.
using Value = std::variant<int64_t, double, std::string, std::vector<double>>;

std::string_view value_type_name(const Value& value) noexcept;

/// The stream-level schema: ordered, typed fields. Convertible to the
/// catalog's SchemaDescriptor so stream schemas participate in the same
/// metadata ecosystem as file formats.
struct StreamSchema {
  std::string name;
  int version = 1;
  struct Field {
    std::string name;
    std::string type;  // "int", "double", "string", "double[]"
    bool operator==(const Field&) const = default;
  };
  std::vector<Field> fields;

  std::string key() const { return name + ":v" + std::to_string(version); }
  core::SchemaDescriptor to_descriptor() const;
  static StreamSchema from_descriptor(const core::SchemaDescriptor& descriptor);
  bool operator==(const StreamSchema&) const = default;
};

/// One data item flowing through the graph: a sequence number, a logical
/// timestamp, and its field values (positionally matching the schema).
struct Record {
  uint64_t sequence = 0;
  double timestamp = 0;
  std::vector<Value> values;

  bool operator==(const Record&) const = default;
};

/// A published record as the plane carries it: copied once at publish()
/// and then shared, immutable, by every queue, policy window and edge it
/// fans out to. The last reference frees it.
using RecordRef = std::shared_ptr<const Record>;

/// Validate a record against a schema (arity and types). Throws
/// ValidationError naming the offending field.
void validate_record(const Record& record, const StreamSchema& schema);

}  // namespace ff::stream
