#include "util/fs.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "util/error.hpp"

namespace ff {
namespace {

TEST(Fs, WriteAndReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("sub/dir/file.txt");
  write_file(path, "hello\nworld");
  EXPECT_EQ(read_file(path), "hello\nworld");
}

TEST(Fs, ReadMissingFileThrows) {
  TempDir dir;
  EXPECT_THROW(read_file(dir.file("missing")), IoError);
}

TEST(Fs, ReadEmptyFileIsEmpty) {
  TempDir dir;
  write_file(dir.file("empty"), "");
  EXPECT_EQ(read_file(dir.file("empty")), "");
}

TEST(Fs, ReadDirectoryThrows) {
  TempDir dir;
  EXPECT_THROW(read_file(dir.str()), IoError);
}

TEST(Fs, ReadsAFileLargerThanOneChunkWithNulBytesWhole) {
  TempDir dir;
  std::string content;
  for (size_t i = 0; i < 300000; ++i) {
    content += i % 997 == 0 ? '\0' : static_cast<char>('a' + i % 26);
  }
  write_file(dir.file("big"), content);
  EXPECT_EQ(read_file(dir.file("big")), content);
}

TEST(Fs, ReadsAFileWhoseSizeStatCannotTell) {
  // procfs reports size 0 for files that have content.
  if (!std::filesystem::exists("/proc/self/status")) GTEST_SKIP();
  const std::string text = read_file("/proc/self/status");
  EXPECT_NE(text.find("Name:"), std::string::npos);
}

TEST(TempDir, CreatesUniqueDirectories) {
  TempDir a;
  TempDir b;
  EXPECT_NE(a.str(), b.str());
  EXPECT_TRUE(std::filesystem::exists(a.path()));
}

TEST(TempDir, CleansUpOnDestruction) {
  std::filesystem::path kept;
  {
    TempDir dir;
    kept = dir.path();
    write_file(dir.file("x.txt"), "data");
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

TEST(Fs, ListFilesSortedAndFilesOnly) {
  TempDir dir;
  write_file(dir.file("b.txt"), "1");
  write_file(dir.file("a.txt"), "2");
  write_file(dir.file("nested/c.txt"), "3");  // nested dir should not appear
  EXPECT_EQ(list_files(dir.str()), (std::vector<std::string>{"a.txt", "b.txt"}));
}

}  // namespace
}  // namespace ff
