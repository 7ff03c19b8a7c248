// Parameterized marshalling properties: every combination of field types
// and record counts round-trips bit-exactly through the self-describing
// wire format, and truncating the stream at any byte boundary inside the
// record section raises ParseError rather than returning garbage.

#include <gtest/gtest.h>

#include <ostream>

#include "stream/marshal.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ff::stream {
namespace {

struct MarshalCase {
  std::vector<std::string> types;
  size_t records;
  uint64_t seed;
};

// gtest would otherwise print the case as a byte dump that starts with the
// vector's heap pointer, and gtest_discover_tests copies that text into
// every ctest name, so each relink would rename the tests.
void PrintTo(const MarshalCase& c, std::ostream* os) {
  *os << "types=";
  for (size_t i = 0; i < c.types.size(); ++i) *os << (i ? "," : "") << c.types[i];
  *os << " records=" << c.records << " seed=" << c.seed;
}

class MarshalSweep : public ::testing::TestWithParam<MarshalCase> {
 protected:
  StreamSchema schema() const {
    StreamSchema out;
    out.name = "sweep";
    out.version = 3;
    for (size_t i = 0; i < GetParam().types.size(); ++i) {
      out.fields.push_back({"f" + std::to_string(i), GetParam().types[i]});
    }
    return out;
  }

  Value random_value(const std::string& type, Rng& rng) const {
    if (type == "int") return Value{static_cast<int64_t>(rng.range(-1e9, 1e9))};
    if (type == "double") return Value{rng.uniform(-1e9, 1e9)};
    if (type == "string") {
      std::string text;
      const uint64_t length = rng.below(20);
      for (uint64_t i = 0; i < length; ++i) {
        text += static_cast<char>(rng.below(256));  // arbitrary bytes
      }
      return Value{text};
    }
    std::vector<double> array(rng.below(8));
    for (double& element : array) element = rng.normal();
    return Value{array};
  }

  std::vector<Record> random_records() const {
    Rng rng(GetParam().seed);
    std::vector<Record> records;
    for (size_t i = 0; i < GetParam().records; ++i) {
      Record record;
      record.sequence = i;
      record.timestamp = rng.uniform(0, 1e6);
      for (const auto& type : GetParam().types) {
        record.values.push_back(random_value(type, rng));
      }
      records.push_back(std::move(record));
    }
    return records;
  }
};

TEST_P(MarshalSweep, RoundTripsExactly) {
  const StreamSchema wire_schema = schema();
  const std::vector<Record> records = random_records();
  Encoder encoder(wire_schema);
  for (const Record& record : records) encoder.append(record);
  const DecodedStream decoded = decode_stream(encoder.bytes());
  EXPECT_EQ(decoded.schema, wire_schema);
  ASSERT_EQ(decoded.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded.records[i], records[i]) << i;
  }
}

TEST_P(MarshalSweep, TruncationAlwaysDetected) {
  const std::vector<Record> records = random_records();
  if (records.empty()) return;
  Encoder probe(schema());
  const size_t header_size = probe.bytes().size();
  Encoder encoder(schema());
  for (const Record& record : records) encoder.append(record);
  const std::vector<uint8_t>& bytes = encoder.bytes();
  Rng rng(GetParam().seed ^ 0xdead);
  for (int trial = 0; trial < 16; ++trial) {
    // Cut somewhere strictly inside the record section.
    const size_t cut =
        header_size + 1 +
        static_cast<size_t>(rng.below(bytes.size() - header_size - 1));
    if (cut >= bytes.size()) continue;
    const std::vector<uint8_t> truncated(bytes.begin(),
                                         bytes.begin() + static_cast<long>(cut));
    // Either a clean prefix of whole records decodes, or ParseError — never
    // silent corruption of a record.
    try {
      const DecodedStream decoded = decode_stream(truncated);
      ASSERT_LE(decoded.records.size(), records.size());
      for (size_t i = 0; i < decoded.records.size(); ++i) {
        EXPECT_EQ(decoded.records[i], records[i]);
      }
    } catch (const ParseError&) {
      // expected for mid-record cuts
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypeGrid, MarshalSweep,
    ::testing::Values(
        MarshalCase{{"int"}, 10, 1}, MarshalCase{{"double"}, 10, 2},
        MarshalCase{{"string"}, 10, 3}, MarshalCase{{"double[]"}, 10, 4},
        MarshalCase{{"int", "double"}, 25, 5},
        MarshalCase{{"string", "double[]", "int"}, 25, 6},
        MarshalCase{{"int", "int", "int", "int"}, 50, 7},
        MarshalCase{{"double[]", "double[]"}, 5, 8},
        MarshalCase{{"int", "double", "string", "double[]"}, 100, 9},
        MarshalCase{{"string"}, 0, 10}),
    [](const ::testing::TestParamInfo<MarshalCase>& info) {
      std::string name = "r" + std::to_string(info.param.records) + "_s" +
                         std::to_string(info.param.seed) + "_t";
      for (const auto& type : info.param.types) {
        for (char c : type) {
          if (std::isalnum(static_cast<unsigned char>(c))) name += c;
        }
      }
      return name;
    });

}  // namespace
}  // namespace ff::stream
