// GTF2 and PSL converters plus the full 4-format conversion matrix the
// paper names in Section II-A (BED, GTF2, GFF3, PSL).

#include <gtest/gtest.h>

#include "gwas/formats.hpp"
#include "util/error.hpp"

namespace ff::gwas {
namespace {

std::vector<AnnotationRecord> sample_records() {
  // Strands restricted to +/- because PSL cannot express '.'.
  return {
      {"chr1", 100, 200, "geneA", 5.5, '+'},
      {"chr2", 0, 50, "geneB", 3.0, '-'},
  };
}

TEST(Gtf2, RoundTrip) {
  EXPECT_EQ(parse_gtf2(write_gtf2(sample_records())), sample_records());
}

TEST(Gtf2, AttributeSyntaxAndCoordinates) {
  const std::string text = write_gtf2({{"chrX", 9, 20, "g1", 0, '+'}});
  EXPECT_NE(text.find("\t10\t20\t"), std::string::npos);  // 1-based closed
  EXPECT_NE(text.find("gene_id \"g1\";"), std::string::npos);
}

TEST(Gtf2, ParsesQuotedAttributesAmongOthers) {
  const auto records = parse_gtf2(
      "chr1\tsrc\texon\t11\t20\t2.5\t-\t.\t"
      "transcript_id \"t1\"; gene_id \"myGene\"; exon_number \"1\";\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "myGene");
  EXPECT_EQ(records[0].start, 10);
}

TEST(Gtf2, RejectsMalformed) {
  EXPECT_THROW(parse_gtf2("chr1\tsrc\texon\t11\t20\n"), ParseError);
  EXPECT_THROW(parse_gtf2("chr1\tsrc\texon\t0\t20\t.\t+\t.\tgene_id \"g\";\n"),
               ParseError);
}

TEST(Psl, RoundTrip) {
  EXPECT_EQ(parse_psl(write_psl(sample_records())), sample_records());
}

TEST(Psl, SkipsHeaderBlock) {
  const std::string with_header =
      "psLayout version 3\n\nmatch\tmis- \trep. ...\n---------\n" +
      write_psl(sample_records());
  EXPECT_EQ(parse_psl(with_header), sample_records());
}

TEST(Psl, RejectsShortLines) {
  EXPECT_THROW(parse_psl("1\t2\t3\n"), ParseError);
}

TEST(Psl, TwentyOneColumns) {
  const std::string text = write_psl(sample_records());
  const std::string first_line = text.substr(0, text.find('\n'));
  size_t tabs = 0;
  for (char c : first_line) tabs += (c == '\t');
  EXPECT_EQ(tabs, 20u);  // 21 columns
}

// std::string, not const char*: gtest prints a pointer parameter as its
// address, and that address would land in every discovered ctest name.
using Conversion = std::pair<std::string, std::string>;

class ConversionMatrix : public ::testing::TestWithParam<Conversion> {};

TEST_P(ConversionMatrix, AnyToAnyPreservesRecords) {
  const auto& [from, to] = GetParam();
  // Express the sample in `from`, convert to `to`, read back, compare.
  std::string source;
  if (from == "bed") source = write_bed(sample_records());
  if (from == "gff3") source = write_gff3(sample_records());
  if (from == "gtf2") source = write_gtf2(sample_records());
  if (from == "psl") source = write_psl(sample_records());
  const std::string converted = convert_annotation(source, from, to);
  std::vector<AnnotationRecord> back;
  if (to == "bed") back = parse_bed(converted);
  if (to == "gff3") back = parse_gff3(converted);
  if (to == "gtf2") back = parse_gtf2(converted);
  if (to == "psl") back = parse_psl(converted);
  // Scores survive except via GFF3/GTF2 '.'-less paths (all formats here
  // carry a numeric score, so full equality holds).
  EXPECT_EQ(back, sample_records()) << from << " -> " << to;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ConversionMatrix,
    ::testing::Values(Conversion{"bed", "gff3"}, Conversion{"bed", "gtf2"},
                      Conversion{"bed", "psl"}, Conversion{"gff3", "bed"},
                      Conversion{"gff3", "gtf2"}, Conversion{"gff3", "psl"},
                      Conversion{"gtf2", "bed"}, Conversion{"gtf2", "gff3"},
                      Conversion{"gtf2", "psl"}, Conversion{"psl", "bed"},
                      Conversion{"psl", "gff3"}, Conversion{"psl", "gtf2"}),
    [](const ::testing::TestParamInfo<Conversion>& info) {
      return info.param.first + "_to_" + info.param.second;
    });

}  // namespace
}  // namespace ff::gwas
